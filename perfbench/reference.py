"""Reference computations made apart from qcs, with numpy and the stdlib only.

The benchmark checks the program's outputs against these: Born weights from
one `eigh` of the operator, psi^dagger A^2 psi, marginals of the phase-space
coordinates, a KS distance and the Kolmogorov band used for the sampled fits.
Nothing here imports qcs.
"""

from __future__ import annotations

import math

import numpy as np

# Eigenvalues this close are one spectral atom, the same convention the
# program documents for its own merge rule.
MERGE_GAP = 1e-12
# Atoms lighter than this are dropped by the program; the reference drops
# them too so both sides list the same outcomes.
NEGLIGIBLE_WEIGHT = 1e-14


def born_weights(matrix: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, weights) of the outcome distribution of `matrix` in `psi`.

    Weights are |V^dagger psi|^2 summed over each group of eigenvalues closer
    than MERGE_GAP; a group's eigenvalue is the mean of its members.
    """
    w, v = np.linalg.eigh(matrix)
    amplitudes = np.abs(v.conj().T @ psi) ** 2
    values, weights = [], []
    i = 0
    while i < w.size:
        j = i
        while j + 1 < w.size and w[j + 1] - w[j] <= MERGE_GAP:
            j += 1
        values.append(float(np.mean(w[i : j + 1])))
        weights.append(math.fsum(amplitudes[i : j + 1]))
        i = j + 1
    values, weights = np.array(values), np.array(weights)
    keep = weights >= NEGLIGIBLE_WEIGHT
    return values[keep], weights[keep]


def squared_mean(matrix: np.ndarray, psi: np.ndarray) -> float:
    """psi^dagger A^2 psi, the mean of the squared observable."""
    return float(np.vdot(psi, matrix @ (matrix @ psi)).real)


def ks_distance(samples: np.ndarray, values: np.ndarray, weights: np.ndarray) -> float:
    """sup_r |empirical CDF - F| for the step CDF with these atoms.

    The supremum of a step-function difference sits at an atom, approached
    from the left or taken on it, so both one-sided gaps are scanned there.
    """
    x = np.sort(samples)
    levels = np.cumsum(weights) / math.fsum(weights)
    below = np.concatenate(([0.0], levels[:-1]))
    at = np.searchsorted(x, values, side="right") / x.size
    before = np.searchsorted(x, values, side="left") / x.size
    return float(max(np.abs(at - levels).max(), np.abs(before - below).max()))


def kolmogorov_quantile(level: float) -> float:
    """x with P(K <= x) = level for the limiting Kolmogorov distribution,
    P(K > x) = 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2), solved by bisection."""

    def tail(x: float) -> float:
        return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(1, 101))

    lo, hi = 0.5, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tail(mid) > 1.0 - level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def allowed_exceedances(tests: int, level: float, false_alarm: float) -> int:
    """Fewest band exceedances k such that a correct sampler shows more than k
    of `tests` independent exceedances with probability below `false_alarm`.

    Each test exceeds its `level` band with probability 1 - level even when
    the sampler is right, so a sweep of several tests needs this allowance
    to keep its own false alarms rare.
    """
    p = 1.0 - level
    for k in range(tests + 1):
        tail = sum(
            math.comb(tests, j) * p**j * (1 - p) ** (tests - j) for j in range(k + 1, tests + 1)
        )
        if tail < false_alarm:
            return k
    return tests


def phase_space_reference(raw: np.ndarray, dq: float) -> dict:
    """(values, masses) of the position, position-squared, momentum and spin
    marginals of a spin-1/2 grid state.

    `raw` is (2, N) sector amplitudes, normalized here so that
    sum |psi|^2 dq = 1.  Momentum amplitudes come from a plain FFT:
    sum_j |FFT psi_j|^2 dq / N equals sum_i |psi_i|^2 dq (Parseval), with
    momenta 2 pi fftfreq(N, dq).
    """
    n = raw.shape[1]
    psi = raw / math.sqrt(float(np.sum(np.abs(raw) ** 2)) * dq)
    q = np.arange(n) * dq
    p = 2 * math.pi * np.fft.fftfreq(n, d=dq)
    q_mass = (np.abs(psi) ** 2 * dq).sum(axis=0)
    p_mass = (np.abs(np.fft.fft(psi, axis=1)) ** 2 * dq / n).sum(axis=0)
    spins = np.array([-0.5, 0.5])
    s_mass = (np.abs(psi) ** 2 * dq).sum(axis=1)
    return {
        "position": (q, q_mass),
        "position_squared": (q * q, q_mass),
        "momentum": (p, p_mass),
        "spin": (spins, s_mass),
    }


def merged_marginal(values: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masses summed per distinct value, sorted by value, zero masses dropped."""
    table: dict[float, list[float]] = {}
    for v, m in zip(values.tolist(), masses.tolist()):
        if m > 0.0:
            table.setdefault(v, []).append(m)
    keys = sorted(table)
    return np.array(keys), np.array([math.fsum(table[k]) for k in keys])
