"""Print the SHA-256 of every output file of the benchmark workloads.

Usage, from the root of a gradflow source tree::

    python3 scripts/output_digests.py [--root DIR] [--against DIR] [--seeds 0 7]
                                      [--workloads NAME ...]

For each workload and seed, the config document that
``perfbench/workloads.config_text`` generates is run by
``gradflow.runner.simulate`` in a temporary directory, and each output file
gives one line ``<workload> <seed> <file> <sha256>``: the echoed
``config.cfg``, ``series.csv``, ``final.sgf`` (``last_valid.sgf`` after an
abort) and every ``snapshot_NNN.sgf``.  ``config.cfg`` holds the config's own
``run.output_dir``, not the temporary directory, so its line shows whether
``gradflow.config.format_config`` kept its bytes.  ``report.txt``, which
holds the wall time, is left out.

The command line then runs a small inline 16x16 config
(:data:`HARNESS_CONFIG`) through the two harnesses, ``gradflow compare`` and
``gradflow sweep`` over a 3-point ladder for each error quantity, and
through ``gradflow run`` once for each model variant and scheme, with the
Flory-Huggins and the quadratic energy (:data:`HARNESS_RUNS`).  Each file a
run writes but ``report.txt`` gives one line ``harness <run> <file>
<sha256>``, and its standard output one line ``harness <run> stdout
<sha256>``.

``--root`` names the source tree whose ``src/gradflow`` and
``perfbench/workloads.py`` are used (default: the tree holding this script).
``--against DIR`` shows whether a change kept the output bytes: the same
digests are also made for the tree at ``DIR``, in a second process, and only
the lines that differ are printed, ``- `` for ``DIR``'s and ``+ `` for this
tree's; the exit status is 1 if any line differs, e.g.::

    python3 scripts/output_digests.py --against ../parent
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import subprocess
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
_VARIANTS = {
    "flory_huggins": ("full", "normal_only"),
    "quadratic": ("full", "normal_only", "material_gauge_quadratic"),
}
# run name -> (config document, command and options)
HARNESS_RUNS = {
    "compare": (HARNESS_CONFIG, ["compare"]),
    "sweep_mass_error": (HARNESS_CONFIG, ["sweep", "--dt-ladder", "2e-3,1e-3,5e-4"]),
    "sweep_trajectory_error": (
        HARNESS_CONFIG,
        ["sweep", "--dt-ladder", "2e-3,1e-3,5e-4", "--quantity", "trajectory_error"],
    ),
    **{
        f"run_{kind}_{variant}_{scheme}": (
            HARNESS_CONFIG.replace("flory_huggins", kind)
            + f"model.variant = {variant}\nstepper.scheme = {scheme}\n",
            ["run"],
        )
        for kind, variants in _VARIANTS.items()
        for variant in variants
        for scheme in ("imex1", "explicit_euler")
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def harness_digests():
    """Run each of :data:`HARNESS_RUNS` through ``gradflow.cli.main`` and
    yield the digest lines of its files and its standard output."""
    from gradflow.cli import main as gradflow

    with tempfile.TemporaryDirectory() as tmp:
        for name, (text, args) in HARNESS_RUNS.items():
            config = Path(tmp) / f"{name}.cfg"
            config.write_text(text)
            out = Path(tmp) / name
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = gradflow([args[0], str(config), "--out", str(out), *args[1:]])
            if code != 0:
                raise SystemExit(f"gradflow {' '.join(args)} exited with {code}")
            for path in sorted(p for p in out.iterdir() if p.name != "report.txt"):
                yield f"harness {name} {path.name} {_digest(path.read_bytes())}"
            yield f"harness {name} stdout {_digest(stdout.getvalue().encode())}"


def digests(root: Path, seeds: list[int], names: list[str] | None):
    """Yield every digest line of the tree at ``root``."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from gradflow import parse_config, simulate

    for name in names or list(workloads.OVERRIDES):
        for seed in seeds:
            config = parse_config(workloads.config_text(name, seed))
            with tempfile.TemporaryDirectory() as tmp:
                simulate(config, out_dir=tmp)
                outputs = (p for p in Path(tmp).iterdir() if p.name != "report.txt")
                for path in sorted(outputs):
                    yield f"{name} {seed} {path.name} {_digest(path.read_bytes())}"
    yield from harness_digests()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--against", type=Path, default=None)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    parser.add_argument("--workloads", nargs="+", default=None)
    args = parser.parse_args(argv)

    lines = digests(args.root.resolve(), args.seeds, args.workloads)
    if args.against is None:
        for line in lines:
            print(line, flush=True)
        return 0

    command = [sys.executable, str(Path(__file__).resolve()), "--root", str(args.against)]
    command += ["--seeds", *map(str, args.seeds)]
    if args.workloads:
        command += ["--workloads", *args.workloads]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as other:
        ours = list(lines)
        theirs = other.stdout.read().splitlines()
    if other.returncode != 0:
        raise SystemExit(f"the digests of {args.against} exited with {other.returncode}")
    kept_ours, kept_theirs = set(ours), set(theirs)
    differ = [f"- {line}" for line in theirs if line not in kept_ours]
    differ += [f"+ {line}" for line in ours if line not in kept_theirs]
    for line in differ:
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
