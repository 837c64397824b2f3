"""Smoke runs of the experiment scripts: each runs as a subprocess on small
inputs, exits 0 and writes the header of its output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lindet

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# script -> (arguments, output file in the run directory or None for stdout,
# first line of that output)
RUNS = {
    "detection_sweep.py": (
        ["--seeds", "2", "--rates", "0.8"],
        "detection_sweep.csv",
        "rate,norm,rejection_frequency,mean_rounds",
    ),
    "decay_curves.py": (
        ["--points", "3"],
        "curves/dephasing_strong.csv",
        "t,i_exact,i_twirled,purity",
    ),
    "trotter_convergence.py": (
        ["--slices", "1", "4"],
        None,
        "total time t = 0.5, seed = 7",
    ),
}


@pytest.mark.parametrize("script", list(RUNS))
def test_script_runs(tmp_path, script):
    args, output, header = RUNS[script]
    env = dict(os.environ, PYTHONPATH=str(Path(lindet.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    text = proc.stdout if output is None else (tmp_path / output).read_text()
    assert text.splitlines()[0] == header
