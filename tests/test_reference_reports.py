"""Pinned digests of rendered reports for fixed configs.

Each config is run once and rendered as json and as csv with the runtime
set to 0; the SHA-256 of each rendering is pinned, so any change to a
deterministic report field (a number's last bit included) shows here.
"""

import dataclasses
import hashlib
import math

import pytest

from qcs.harness import ExperimentConfig, render_report, run_experiment

N_GRID = 8


def _phase_space_psi():
    """Two spin sectors on the grid, in [re, im] pairs, normalized by the runner."""
    return [
        [[math.cos(1.3 * k + s), math.sin(0.7 * k - s) + 0.25] for k in range(N_GRID)]
        for s in range(2)
    ]


def _phase_space(observable):
    return {
        "kind": "phase_space",
        "sigma": "1/2",
        "N": N_GRID,
        "dq": 0.25,
        "psi": _phase_space_psi(),
        "normalize": True,
        "observable": observable,
    }


CONFIGS = {
    "measure": {
        "kind": "measure",
        "operator": [[1, [0, 1], 0], [[0, -1], 0, 0.5], [0, 0.5, -1]],
        "state": [[1.0, 0.0], [1.0, 1.0], [0.0, -1.0]],
        "normalize": True,
        "barrier": {"kind": "rotation", "c": "3/8"},
        "seed": 5,
        "samples": 2000,
    },
    "dynamics": {
        "kind": "dynamics",
        "H": [[0, 1], [1, 0]],
        "A": [[1, 0], [0, -1]],
        "psi0": [1, 0],
        "times": [0.0, 0.25, 0.5, 1.0, 2.0],
        "barrier": {"kind": "rotation", "c": "1/5"},
        "sigma": {"kind": "rotation", "c": "1/3"},
    },
    "example4": {"kind": "example4", "barrier": {"kind": "rotation", "c": "1/5"}},
    "cat": {"kind": "cat", "p": "3/10", "z": 0.8},
    "phase_space_position": _phase_space(
        {"kind": "position", "g": {"kind": "poly", "coeffs": [0.5, -1, 2]}}
    ),
    "phase_space_momentum": _phase_space(
        {"kind": "momentum", "f": {"kind": "affine", "a": 2, "b": -1}}
    ),
    "phase_space_spin": _phase_space({"kind": "spin"}),
}

DIGESTS = {
    "cat": {
        "json": "bd728bbb0be360672ea4b31f3bfb9ca4fba6810d5283ebc4798bc277d1dc8607",
        "csv": "27625424698cc7e05ac60cc5ed0cf63b942aaef14e97197d2d38bb04f226edca",
    },
    "dynamics": {
        "json": "7fa73c07e62518c62c543b995ac58610833fcb72422b4aa05769beffc2b3226b",
        "csv": "ad23a6cb2ec210a5c81bab2e6930edaa4b8dd394655a903ec6e30045e66b44c9",
    },
    "example4": {
        "json": "277cf19c4065e228e8d40134910bfdb684861b2bdf1db62cb77e4b3b5feddb3a",
        "csv": "42f2e57712ca7c595d8e28d8d6a2ad3c4ba756169d57f05d0f6cc648cd8c8403",
    },
    "measure": {
        "json": "0ef50b1bc385f8d33212aab3cc9779140e426477d74b2607c20c954b503887da",
        "csv": "353209be5d4d1611a4676189ef805084f2998098d0e6757fa876df151594d4be",
    },
    "phase_space_momentum": {
        "json": "efd4598066065b1465a24a1aaa7cdb64564304c9f9fd522a88928c0e8a518866",
        "csv": "0b5a93a934427970f1e9a3f3dda3a56e5011b9b33d662c83337c9624544c97ae",
    },
    "phase_space_position": {
        "json": "5ff0e84abe6ebd9eadeeac4d67aabd746fe8221198a793440fdc8e1798a60f7d",
        "csv": "983ef98aa688e7aafa08a44231cb085b27eb072925db2e265b66e1fbcee971e7",
    },
    "phase_space_spin": {
        "json": "bcbcddb456dd280626758b62c0b5f1f89f65b2b4aba6d438662c75ff958a2f5c",
        "csv": "17258b9e3ddaf917e12dc9a166e5559c3ea56d5e4955a25acbc807bbf0694ea9",
    },
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rendered_digests(name: str) -> dict[str, str]:
    report = run_experiment(ExperimentConfig.from_json(CONFIGS[name]))
    report = dataclasses.replace(report, runtime=0.0)
    return {fmt: _digest(render_report(report, fmt)) for fmt in ("json", "csv")}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reference_report_digests(name):
    assert rendered_digests(name) == DIGESTS[name]
