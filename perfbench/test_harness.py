"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import scipy.fft

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gradflow import Grid, parse_config, simulate  # noqa: E402
from gradflow.spectral import derivatives  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_derivatives_is_one_forward_and_one_inverse_fft():
    grid = Grid(16, 16)
    field = grid.from_function(lambda x, y: np.sin(x) * np.cos(2 * y))
    tracer = spans.Tracer()
    original = scipy.fft.rfft2
    with spans.installed(tracer):
        derivatives(field)
    assert tracer.names.count("spectral.rfft2") == 1
    assert tracer.names.count("spectral.irfft2") == 1
    assert len(tracer.names) == 2
    assert scipy.fft.rfft2 is original


def test_self_time_subtracts_only_direct_children():
    tracer = spans.Tracer()
    #               a      b      c      d
    tracer.names = ["a", "b", "c", "d"]
    tracer.starts = [0.0, 1.0, 2.0, 5.0]
    tracer.ends = [10.0, 4.0, 3.0, 6.5]
    tracer.parents = [-1, 0, 1, 0]
    assert spans.self_times(tracer) == [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5]


def test_nested_spans_from_the_context_manager():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert tracer.parents == [-1, 0, 0]
    outer, first, second = (e - s for s, e in zip(tracer.starts, tracer.ends))
    assert spans.self_times(tracer)[0] == outer - first - second


def test_seed_0_regenerates_the_shipped_config():
    shipped = parse_config((ROOT / "configs" / "relaxation_64.cfg").read_text())
    generated = parse_config("\n".join(f"{k} = {v}" for k, v in workloads.base_keys(0).items()))
    for field in dataclasses.fields(shipped):
        assert getattr(generated, field.name) == getattr(shipped, field.name), field.name

    relax64 = parse_config(workloads.config_text("relax64", 0))
    changed = [f.name for f in dataclasses.fields(shipped)
               if getattr(relax64, f.name) != getattr(shipped, f.name)]
    assert changed == ["t_end"]


def test_other_seeds_perturb_the_initial_data_within_the_stated_range():
    seen = set()
    for seed in range(1, workloads.N_VARIANTS):
        amp, psi = workloads.initial_data(seed)
        assert abs(amp - 1.0) <= workloads.PERTURBATION
        assert abs(psi / 0.25 - 1.0) <= workloads.PERTURBATION * (1 + 1e-6)
        seen.add((amp, psi))
    assert len(seen) == workloads.N_VARIANTS - 1
    assert workloads.config_text("relax256", 7) == workloads.config_text("relax256", 7)


def test_traced_step_counts_fourteen_ffts():
    text = workloads.config_text("relax64", 0).replace("grid.nx = 64", "grid.nx = 16")
    config = dataclasses.replace(parse_config(text), t_end=3 * 4e-5)
    tracer = spans.Tracer()
    for name in ("config.parse", "spectral.grid_build", "config.initial_state"):
        with tracer.span(name):
            pass
    with spans.installed(tracer), tracer.span("runner.simulate"):
        simulate(config)
    samples = spans.layer_samples(tracer, 3)
    assert len(samples["step_ms"]) == 3
    steps = [i for i, n in enumerate(tracer.names) if n == "flow.step"]
    for step in steps:
        inside = [n for i, n in enumerate(tracer.names)
                  if tracer.starts[step] <= tracer.starts[i] <= tracer.ends[step]]
        assert sum(n in spans.FFT for n in inside) == 14
    assert samples["diagnostics.record_calls"] == 2


def _passing_report(workload: str, seed: int) -> tuple[dict, dict]:
    final = {"t": 0.02, "energy": 40.0, "mass": 10.0, "mass_error": 1e-7, "h_min": -1.0,
             "h_max": 1.0, "psi_min": 0.24, "psi_max": 0.26, "dissipation_lhs": -1.0,
             "dissipation_rhs": -1.0, "clamp_count": 0}
    report = {"aborted": False, "finite": True, "energies": [41.0, 40.5, 40.0],
              "final": final}
    references = {workload: {str(seed % workloads.N_VARIANTS): dict(final)}}
    return report, references


def test_gate_passes_rounding_and_fails_real_changes():
    report, refs = _passing_report("relax64", 3)
    assert run.failures("relax64", 3, report, refs) == []

    report["final"]["energy"] *= 1 + 1e-13
    assert run.failures("relax64", 3, report, refs) == []
    report["final"]["energy"] *= 1 + 1e-6
    assert run.failures("relax64", 3, report, refs) == [
        f"final energy = {report['final']['energy']!r}, reference 40.0"
    ]

    report, refs = _passing_report("relax64", 3)
    report["energies"] = [41.0, 41.5, 40.0]
    assert run.failures("relax64", 3, report, refs) == ["energy rises between records 0 and 1"]

    report, refs = _passing_report("relax64", 3)
    report["final"]["mass_error"] = float("nan")
    assert len(run.failures("relax64", 3, report, refs)) == 2

    assert run.failures("relax64", 3, None, refs) == ["worker process failed"]
