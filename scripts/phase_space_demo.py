#!/usr/bin/env python3
"""Phase-space demo: expectation identities for position/momentum/spin on a
random spin-1/2 state, plus the two-point witness showing position and
momentum cannot share one barrier."""

import argparse
from fractions import Fraction

import numpy as np

from qcs.measure_maps import level_function
from qcs.phase_space import (
    PhaseSpaceState,
    build_measure,
    momentum_observable,
    operator_mean,
    position_observable,
    realize_barrier,
    shared_barrier_joint_gap,
    spin_observable,
    to_unit_interval,
)
from qcs.spectral import PiecewiseFn
from qcs.states import label_mean


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--dq", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    raw = rng.normal(size=(2, args.n)) + 1j * rng.normal(size=(2, args.n))
    state = PhaseSpaceState.normalized(Fraction(1, 2), raw, args.dq)
    equiv = to_unit_interval(build_measure(state))

    cases = [
        ("position", position_observable(PiecewiseFn.identity(), state)),
        ("momentum", momentum_observable(PiecewiseFn.identity(), state)),
        ("spin", spin_observable(state)),
    ]
    print(f"{'observable':10s} {'operator side':>16s} {'label side':>16s} {'gap':>10s}")
    for name, obs in cases:
        op_side = operator_mean(state, name)
        barrier, _ = realize_barrier(obs, equiv)
        label_side = label_mean(level_function(obs.cdf, barrier))
        print(f"{name:10s} {op_side:16.12f} {label_side:16.12f} {abs(op_side - label_side):10.2e}")

    two_point = np.zeros((1, 8), dtype=complex)
    two_point[0, 0] = two_point[0, 1] = 1.0
    witness = PhaseSpaceState.normalized(Fraction(0), two_point, 0.5)
    print(f"\nshared-barrier joint gap on the two-point state: "
          f"{shared_barrier_joint_gap(witness):.4f} (> 0: different barriers needed)")


if __name__ == "__main__":
    main()
