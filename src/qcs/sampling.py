"""Deterministic, splittable uniform label streams.

Built on the Philox counter-based generator: position i of a seed's stream is
a pure function of (seed, i), so a run of n samples can be partitioned across
workers at arbitrary boundaries and the aggregate output is identical.
Philox advances in 4-word blocks; we advance to the containing block and
slice off the remainder.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .errors import OutOfDomain

_KEYS = 1 << 64
REDRAWS = 16  # replacement draws per rejected position


def _key(seed: int) -> int:
    """The seed as a 64-bit Philox key word; a seed outside [0, 2**64)
    would draw the stream of another seed."""
    seed = int(seed)
    if not 0 <= seed < _KEYS:
        raise OutOfDomain(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def uniform_labels(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles at absolute positions [start, start+count) for this seed."""
    if count < 0 or start < 0:
        raise OutOfDomain("start and count must be nonnegative")
    bg = Philox(key=np.uint64(_key(seed)))
    bg.advance(start // 4)
    skip = start % 4
    return Generator(bg).random(skip + count)[skip:]


def keyed_uniform(seed: int, index: int) -> np.ndarray:
    """Replacement draws for one rejected position, on a stream keyed by
    (seed, index+1) so it never collides with the main stream's key."""
    if not 0 <= index < _KEYS - 1:
        raise OutOfDomain(f"position must lie in [0, 2**64 - 1), got {index}")
    key = np.array([_key(seed), int(index) + 1], dtype=np.uint64)
    return Generator(Philox(key=key)).random(REDRAWS)
