"""A pinned digest of the exact phase-space pipeline at N=128.

The state is spin 1/2 on a 128-point grid, amplitudes from
``default_rng(7)``, ``dq = 0.1``, with the four observables of the
``phase-space-grid`` workload: position, squared position, momentum and
spin.  The SHA-256 covers the equivalence's ends, every field of each
barrier, each level function's ends and value bits, both label means'
bits and the ``masses_by_value`` items, so a change to any of them (a last
bit included) shows here.  Like ``test_reference_reports.py``, the pin
holds on the host it was computed on.
"""

import hashlib
from fractions import Fraction

import numpy as np

from qcs.measure_maps import level_function
from qcs.phase_space import (
    PhaseSpaceState,
    build_measure,
    momentum_observable,
    position_observable,
    realize_barrier,
    spin_observable,
    to_unit_interval,
)
from qcs.spectral import PiecewiseFn
from qcs.states import label_mean

N, DQ, SEED = 128, 0.1, 7

DIGEST = "e316358d3e1ec0878abe64c34db19042357d397435e5b0f5ff34ab70a05a25aa"


def _ints(name, nums):
    """One line naming a list of integers, in hex (no digit limit)."""
    return f"{name}:{','.join(map(hex, nums))}\n"


def phase_space_digest() -> str:
    rng = np.random.default_rng(SEED)
    raw = rng.normal(size=(2, N)) + 1j * rng.normal(size=(2, N))
    state = PhaseSpaceState.normalized(Fraction(1, 2), raw, DQ)
    equiv = to_unit_interval(build_measure(state))
    observables = (
        position_observable(PiecewiseFn.identity(), state),
        position_observable(PiecewiseFn.square(), state),
        momentum_observable(PiecewiseFn.identity(), state),
        spin_observable(state),
    )
    h = hashlib.sha256()
    h.update(_ints("equivalence", [equiv.den, *equiv.nums]).encode())
    for obs in observables:
        barrier, _ = realize_barrier(obs, equiv)
        lines = [
            _ints("barrier", [barrier.den, *barrier.nums]),
            f"slopes:{','.join(map(str, barrier.slopes))}\n",
            _ints("intercepts", [barrier.cden, *barrier.cnums]),
        ]
        fn = level_function(obs.cdf, barrier)
        lines += [
            _ints("level ends", [fn.den, *fn.nums]),
            f"level values:{','.join(map(float.hex, fn.values))}\n",
            f"label means:{label_mean(fn, 1).hex()},{label_mean(fn, 2).hex()}\n",
            "masses:" + ",".join(f"{v.hex()}={m.numerator:#x}/{m.denominator:#x}" for v, m in fn.masses_by_value().items()),
        ]
        h.update("".join(lines).encode())
    return h.hexdigest()


def test_phase_space_digest_at_n128():
    assert phase_space_digest() == DIGEST
