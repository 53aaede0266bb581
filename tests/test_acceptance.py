"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its runtime.  Tolerances and runtime budgets are pinned here, and
each detail line in verify_details.py."""

import pytest

from qcs import verify
from verify_details import DETAILS


CRITERIA = [
    ("01 exact Born distributions on 300 random triples", verify.check_born_exactness, 10.0),
    ("02 squaring witness reproduction", verify.check_squaring_example, 1.0),
    ("03 factorization roundtrip on 100 pairs", verify.check_factorization_roundtrip, 5.0),
    ("04 sampling KS fit over 100 seeds", verify.check_sampling_fit, 1.0),
    ("05 gradient identity on 50 pairs", verify.check_gradient_identity, 5.0),
    ("06 two-level dynamics and generator equivalence", verify.check_rabi_dynamics, 5.0),
    ("07 intertwining on 10 lifted cases", verify.check_intertwining, 10.0),
    ("08 uncertainty inequality on 1000 triples", verify.check_heisenberg, 2.0),
    ("09 phase-space expectation identity", verify.check_phase_space_expectation, 0.08),
    ("10 spectrum closure on 50 operators", verify.check_spectrum_closure, 5.0),
]


@pytest.mark.parametrize("label,check,budget", CRITERIA, ids=[c[0][:2] for c in CRITERIA])
def test_acceptance_criterion(label, check, budget):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {label}: {result.detail} ({result.seconds:.2f}s)")
    assert result.passed, f"{label}: {result.detail}"
    assert result.detail == DETAILS[result.name]
    assert result.seconds < budget, f"{label} took {result.seconds:.2f}s, budget {budget}s"
