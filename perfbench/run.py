"""gradflow benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload relax64 --seed 0 --seconds 40 --trace 0

Run it from the root of a gradflow source tree; the program is imported from
``src/``.  The loop is closed: one fresh worker process at a time, each
running one ``simulate`` call of the generated config with one FFT worker,
until ``--seconds`` have passed (and at least MIN_RUNS runs were made).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``, as medians
over the runs.  ``--trace 1`` alternates untraced and traced runs and prints
the per-layer metrics; the untraced runs give ``trace.overhead_pct``.

Every run passes the correctness gate or counts as failed; a failed run's
timings stay in the samples.  The last line of standard output is the JSON
result; the lines before it are a readable table and the run environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
MIN_RUNS = 3  # per mode, even when --seconds is shorter than three runs
WORKER_TIMEOUT_S = 60

# Correctness gate.  The final record must match the stored reference to
# REL_TOL of each value (mass_error relative to the mass): far above the
# 1e-13 that reordered floating-point sums accumulate over 500 steps, far
# below the 1e-5 that an O(dt) change of the scheme moves it.
REL_TOL = 1e-9
COMPARED = (
    "t", "energy", "mass", "mass_error", "h_min", "h_max",
    "psi_min", "psi_max", "dissipation_rhs", "clamp_count",
)
ENERGY_RISE_TOL = 1e-12  # relative; a larger rise between records fails


def failures(workload: str, seed: int, report: dict | None, references: dict) -> list[str]:
    """Reasons the run fails the correctness gate; empty when it passes."""
    if report is None:
        return ["worker process failed"]
    out = []
    if report["aborted"] or not report["finite"]:
        out.append("solver aborted or produced non-finite fields")
    energies = report["energies"]
    for i in range(1, len(energies)):
        if not energies[i] <= energies[i - 1] + ENERGY_RISE_TOL * abs(energies[i - 1]):
            out.append(f"energy rises between records {i - 1} and {i}")
            break
    final = report["final"]
    rel = abs(final["mass_error"]) / abs(final["mass"])
    if not rel <= workloads.MASS_ERROR_BOUND[workload]:
        out.append(f"mass_error_rel {rel:.3g} above {workloads.MASS_ERROR_BOUND[workload]:g}")
    ref = references[workload].get(str(seed % workloads.N_VARIANTS))
    if ref is None:
        out.append("no stored reference for this seed")
        return out
    for key in COMPARED:
        scale = abs(ref["mass"]) if key == "mass_error" else abs(ref[key])
        if not abs(final[key] - ref[key]) <= REL_TOL * scale:
            out.append(f"final {key} = {final[key]!r}, reference {ref[key]!r}")
    return out


def run_worker(root: Path, config: Path, out_dir: Path, trace: bool, spans_json: Path | None):
    """One worker process; its report, or None if it did not complete."""
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    cmd = [sys.executable, str(HERE / "worker.py"), str(config), str(out_dir), str(int(trace))]
    if spans_json is not None:
        cmd.append(str(spans_json))
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(reports: list[dict]) -> dict[str, float]:
    final = reports[0]["final"]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reports),
        "steps_per_s": statistics.median(r["steps"] / r["wall_s"] for r in reports),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "mass_error_rel": abs(final["mass_error"]) / abs(final["mass"]),
    }


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.OVERRIDES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "gradflow" / "__init__.py").is_file():
        print(f"no gradflow source tree at {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    references = json.loads((HERE / "references.json").read_text())

    work = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.cfg"
    config.write_text(workloads.config_text(args.workload, args.seed))

    runs: list[tuple[bool, dict | None, list[str]]] = []
    modes = (False, True) if args.trace else (False,)
    start = time.monotonic()
    while time.monotonic() - start < args.seconds or len(runs) < MIN_RUNS * len(modes):
        mode = modes[len(runs) % len(modes)]
        spans_json = work / "spans.json" if mode else None
        report = run_worker(root, config, work / "out", mode, spans_json)
        runs.append((mode, report, failures(args.workload, args.seed, report, references)))

    failed = [reasons for _, _, reasons in runs if reasons]
    for reasons in failed:
        print("FAILED: " + "; ".join(reasons), file=sys.stderr)
    untraced = [r for mode, r, _ in runs if not mode and r is not None]
    traced = [r for mode, r, _ in runs if mode and r is not None]

    values: dict[str, float] = {}
    if args.trace and untraced and traced:
        values = spans.per_layer_metrics(
            [r["layers"] for r in traced], [r["wall_s"] for r in untraced]
        )
    elif not args.trace and untraced:
        values = end_to_end(untraced)
    if values:
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  runs {len(runs)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':40s} {len(failed) / len(runs):>16.6g} failed/attempted")

    amp, psi = workloads.initial_data(args.seed)
    shas = sorted({r["series_sha256"] for _, r, _ in runs if r is not None})
    env = {
        **(untraced[0]["versions"] if untraced else {}),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "initial.h_amplitude": amp,
        "initial.psi": psi,
        "series_sha256": shas[0] if len(shas) == 1 else shas,
    }
    per_run = [
        {"traced": t, "failures": reasons,
         **({k: r[k] for k in ("wall_s", "setup_s", "peak_rss_mb", "steps")} if r else {})}
        for t, r, reasons in runs
    ]
    (work / "result.json").write_text(
        json.dumps({"env": env, "metrics": metrics, "runs": per_run}, indent=1)
    )
    print(json.dumps({"env": env}))
    correct = bool(metrics) and not failed
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
