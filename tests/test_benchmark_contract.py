"""The benchmark worker runs against this package, traced and untraced.

``perfbench/worker.py`` reads the final state's ``h.values``, calls
``get_fft_workers``, and its tracer rebinds solver names by
``owner.__dict__``; a rename in the package would break the benchmark
without failing any other test.  Each run is a 16x16 Flory-Huggins problem
of 20 steps in a fresh process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CONFIG = """
grid.nx = 16
energy.kind = flory_huggins
stepper.dt = 1e-4
run.t_end = 2e-3
initial.psi = 0.25
"""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_worker_reports_a_finite_run(tmp_path, trace):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    worker = ROOT / "perfbench" / "worker.py"
    done = subprocess.run(
        [sys.executable, str(worker), str(cfg), str(tmp_path / "out"), trace],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["finite"] is True and report["aborted"] is False
    assert report["steps"] == 20
    if trace == "1":
        assert isinstance(report["layers"], dict) and report["layers"]
