"""Pinned digests of rendered reports for the committed configs.

Every file under configs/ is run once and rendered as json and as csv with
the runtime set to 0; the SHA-256 of each rendering is pinned, so any change
to a deterministic report field (a number's last bit included) shows here.
Each config must also run to exit 0 through ``qcs run``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from qcs.cli import main as cli_main
from qcs.harness import ExperimentConfig, render_report, run_experiment

CONFIGS = {p.stem: p for p in (Path(__file__).resolve().parents[1] / "configs").glob("*.json")}

DIGESTS = {
    "cat": {
        "json": "bd728bbb0be360672ea4b31f3bfb9ca4fba6810d5283ebc4798bc277d1dc8607",
        "csv": "27625424698cc7e05ac60cc5ed0cf63b942aaef14e97197d2d38bb04f226edca",
    },
    "dynamics": {
        "json": "3b1b4b4ee4102f2abf8aadef68a304e24ef6019a15e42a14de38a00affda75e4",
        "csv": "888ac6db4fe8f4f48373874cb82227f90263e6ef8001531b796ecd697c3c345b",
    },
    "example4": {
        "json": "277cf19c4065e228e8d40134910bfdb684861b2bdf1db62cb77e4b3b5feddb3a",
        "csv": "42f2e57712ca7c595d8e28d8d6a2ad3c4ba756169d57f05d0f6cc648cd8c8403",
    },
    "measure": {
        "json": "0a6d43154f356172339f3039f9dc79299485c3fbf8166336042c636109cd55d3",
        "csv": "ab65c40985a3bed72fc4cec76e041a154a0f4a7906c748771a3d6bc6f284989f",
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
        "json": "910bb4aea7088e9eb7f586836f9e3e2af05c3ac6949cee221029f7a6611abf98",
        "csv": "17258b9e3ddaf917e12dc9a166e5559c3ea56d5e4955a25acbc807bbf0694ea9",
    },
    "rabi": {
        "json": "d9c8f80d4108eddacc0f00f84cd7763af273b9c06a8fa189412ed3dfb4f0e591",
        "csv": "07cc0a48babd87c3193bdc0c17e8aece07787f25897768236c1fcae676536e1e",
    },
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_config_has_a_digest_and_every_digest_a_config():
    assert sorted(CONFIGS) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_reference_report_digests(name):
    report = run_experiment(ExperimentConfig.from_json(json.loads(CONFIGS[name].read_text())))
    report = dataclasses.replace(report, runtime=0.0)
    assert {fmt: _digest(render_report(report, fmt)) for fmt in ("json", "csv")} == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_runs_through_the_cli(name, tmp_path):
    assert cli_main(["run", "--config", str(CONFIGS[name]), "--out", str(tmp_path / "report")]) == 0
