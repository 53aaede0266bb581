"""The property sweeps of `qcs verify` that are not acceptance criteria, one
test per check; the acceptance criteria run in test_acceptance.py."""

import pytest

from qcs import verify
from verify_details import DETAILS

ACCEPTANCE_NAMES = {c.check_name for c in verify.ACCEPTANCE_CHECKS}
SWEEPS = [
    c
    for checks in verify.SUITES.values()
    for c in checks
    if c.check_name not in ACCEPTANCE_NAMES
]


def test_check_names_are_unique_across_suites():
    """`qcs verify --suite all` runs the suites one after another, so a check
    listed in two suites would run twice."""
    names = [c.check_name for checks in verify.SUITES.values() for c in checks]
    assert len(names) == len(set(names))


def test_every_check_has_a_pinned_detail_and_every_pin_a_check():
    assert sorted(c.check_name for checks in verify.SUITES.values() for c in checks) == sorted(DETAILS)


@pytest.mark.parametrize("check", SWEEPS, ids=[c.check_name for c in SWEEPS])
def test_property_sweep(check):
    result = check()
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.detail == DETAILS[result.name]
