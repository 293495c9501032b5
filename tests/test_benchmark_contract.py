"""The benchmark worker runs against this package, traced and untraced.

``perfbench/worker.py`` reads the final state's ``h.values``, calls
``get_fft_workers``, and its tracer rebinds solver names by
``owner.__dict__``; a rename in the package would break the benchmark
without failing any other test.  So every name that a module of
``perfbench/`` imports from the package must exist.  Each run is a
Flory-Huggins problem in a fresh process: 20 steps on 16x16, and, traced, 2
steps on 256x256, where the solver shares each step with its helper thread
on two cores.

Each benchmark workload also runs once at seed 0 through the worker, and must
pass the benchmark's own correctness gate (``perfbench/run.py``'s
``failures``): a final record within 1e-9 of ``perfbench/references.json``.

``scripts/output_digests.py`` runs the benchmark workloads' configs from
``perfbench/workloads.py``; compared against its own tree it must find the
same bytes in a second process, so the tool that shows a change kept the
output bytes runs here too.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradflow.spectral
from test_demos import gradflow_imports

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402  (perfbench/run.py)
import workloads  # noqa: E402

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


def test_the_names_the_benchmark_imports_exist():
    # perfbench/ is not in Tier-1's testpaths: without this check, a name
    # removed from the package would break the benchmark at import and fail
    # no test here.
    imports = [
        (path.name, module, name)
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for module, name in gradflow_imports(path.read_text(), str(path))
    ]
    assert imports
    missing = [
        f"{file}: {module}.{name}"
        for file, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


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


@pytest.mark.parametrize("workload", sorted(workloads.OVERRIDES))
def test_workload_passes_the_benchmark_gate(tmp_path, workload):
    report = run_worker(tmp_path, workloads.config_text(workload, 0), "0")
    references = json.loads((ROOT / "perfbench" / "references.json").read_text())
    assert bench.failures(workload, 0, report, references) == []


def test_output_digests_of_this_tree_match_themselves():
    # relax256 runs on the paired path where the machine has two cores, so
    # its bytes are compared across two processes, each with its own helper
    # thread.
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "output_digests.py"),
            "--workloads", "relax64", "relax256", "--seeds", "0", "--against", str(ROOT),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (done.returncode, done.stdout) == (0, ""), done.stderr
