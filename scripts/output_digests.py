"""Print the SHA-256 of every output file of the benchmark workloads.

Usage, from the root of a gradflow source tree::

    python3 scripts/output_digests.py [--root DIR] [--seeds 0 7] [--workloads NAME ...]

For each workload and seed, the config document that
``perfbench/workloads.config_text`` generates is run by
``gradflow.runner.simulate`` in a temporary directory, and each output file
gives one line ``<workload> <seed> <file> <sha256>``: the echoed
``config.cfg``, ``series.csv``, ``final.sgf`` (``last_valid.sgf`` after an
abort) and every ``snapshot_NNN.sgf``.  ``config.cfg`` holds the config's own
``run.output_dir``, not the temporary directory, so its line shows whether
``gradflow.config.format_config`` kept its bytes.  ``report.txt``, which
holds the wall time, is left out.

The two harnesses then run through the command line on a small inline
16x16 config (:data:`HARNESS_CONFIG`): ``gradflow compare``,
and ``gradflow sweep`` over a 3-point ladder for each error quantity
(:data:`HARNESS_RUNS`).  Each file a run writes gives one line ``harness
<run> <file> <sha256>``, and its standard output one line ``harness <run>
stdout <sha256>``.

``--root`` names the source tree whose ``src/gradflow`` and
``perfbench/workloads.py`` are used (default: the tree holding this script).
Running the script on two trees and comparing the outputs shows whether a
change kept the output bytes, e.g.::

    python3 scripts/output_digests.py --root ../parent > before.txt
    python3 scripts/output_digests.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

HARNESS_CONFIG = """\
grid.nx = 16
energy.kind = flory_huggins
mobility.m_x = 5.0
stepper.dt = 1e-3
run.t_end = 0.02
run.record_every = 2
initial.h_amplitude = 0.5
initial.psi = 0.25
"""
HARNESS_RUNS = {
    "compare": ["compare"],
    "sweep_mass_error": ["sweep", "--dt-ladder", "2e-3,1e-3,5e-4"],
    "sweep_trajectory_error": [
        "sweep", "--dt-ladder", "2e-3,1e-3,5e-4", "--quantity", "trajectory_error"
    ],
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def harness_digests() -> None:
    """Run each of :data:`HARNESS_RUNS` through ``gradflow.cli.main`` and
    print the digests of its files and its standard output."""
    from gradflow.cli import main as gradflow

    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "harness.cfg"
        config.write_text(HARNESS_CONFIG)
        for name, args in HARNESS_RUNS.items():
            out = Path(tmp) / name
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = gradflow([args[0], str(config), "--out", str(out), *args[1:]])
            if code != 0:
                raise SystemExit(f"gradflow {' '.join(args)} exited with {code}")
            for path in sorted(out.iterdir()):
                print(f"harness {name} {path.name} {_digest(path.read_bytes())}", flush=True)
            print(f"harness {name} stdout {_digest(stdout.getvalue().encode())}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    parser.add_argument("--workloads", nargs="+", default=None)
    args = parser.parse_args(argv)

    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from gradflow import parse_config, simulate

    for name in args.workloads or list(workloads.OVERRIDES):
        for seed in args.seeds:
            config = parse_config(workloads.config_text(name, seed))
            with tempfile.TemporaryDirectory() as tmp:
                simulate(config, out_dir=tmp)
                outputs = (p for p in Path(tmp).iterdir() if p.name != "report.txt")
                for path in sorted(outputs):
                    print(f"{name} {seed} {path.name} {_digest(path.read_bytes())}", flush=True)
    harness_digests()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
