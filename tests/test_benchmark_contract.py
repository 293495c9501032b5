"""The benchmark worker runs against this package, traced and untraced.

``perfbench/worker.py`` reads the final state's ``h.values``, calls
``get_fft_workers``, and its tracer rebinds solver names by
``owner.__dict__``; a rename in the package would break the benchmark
without failing any other test.  Each run is a Flory-Huggins problem in a
fresh process: 20 steps on 16x16, and, traced, 2 steps on 256x256, where the
solver shares each step with its helper thread on two cores.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradflow.spectral

ROOT = Path(__file__).resolve().parent.parent

CONFIG = """
grid.nx = 16
energy.kind = flory_huggins
stepper.dt = 1e-4
run.t_end = 2e-3
initial.psi = 0.25
"""


def run_worker(tmp_path, config, trace):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
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
    if trace == "1":
        assert isinstance(report["layers"], dict) and report["layers"]
    return report


@pytest.mark.parametrize("trace", ["0", "1"])
def test_worker_reports_a_finite_run(tmp_path, trace):
    assert run_worker(tmp_path, CONFIG, trace)["steps"] == 20


def test_traced_worker_runs_the_paired_path(tmp_path):
    # The helper thread calls no name the tracer rebinds, so a traced run of
    # the paired path completes and counts one geometry build per state.
    config = CONFIG.replace("grid.nx = 16", "grid.nx = 256").replace("2e-3", "2e-4")
    report = run_worker(tmp_path, config, "1")
    assert report["steps"] == 2
    assert report["layers"]["geometry.build_cache_calls_per_step"] == 1.5
    threads = 2 if gradflow.spectral._CORES >= 2 else 1
    assert f"threads = {threads}" in (tmp_path / "out" / "report.txt").read_text().splitlines()
