"""Smoke test: every script under scripts/ runs to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CASES = {
    "phase_space_demo.py": ["--n", "16"],
    "born_sweep.py": ["--cases", "2", "--samples", "1000"],
    "rabi_evolution.py": ["--steps", "4", "--out", "{tmp}/rabi.csv"],
}


@pytest.mark.parametrize("script", sorted(CASES))
def test_script_runs(script, tmp_path):
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(CASES)
    args = [a.format(tmp=tmp_path) for a in CASES[script]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
