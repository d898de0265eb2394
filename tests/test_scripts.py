"""The demo scripts run end to end through the public API, with every
warning an error, and print nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclex

SRC = Path(cyclex.__file__).resolve().parents[1]
SCRIPTS = SRC.parent / "scripts"

# script: its arguments, given a directory for what it writes
DEMOS = {
    "degenerate_cycles_demo.py": lambda out: ["--m", "3", "--rho", "2", "--out-dir", str(out / "degenerate")],
    "spiral_table.py": lambda out: ["--ns", "3,100"],
    "three_balls_exhibit.py": lambda out: ["--out", str(out / "three_balls_gap.json")],
}


@pytest.mark.parametrize("script", DEMOS)
def test_demo_script_runs_without_a_warning(tmp_path, script):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *DEMOS[script](tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "error"},
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout
