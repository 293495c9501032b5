"""Print the SHA-256 of every output file of the benchmark workloads.

Usage, from the root of a gradflow source tree::

    python3 scripts/output_digests.py [--root DIR] [--seeds 0 7] [--workloads NAME ...]

For each workload and seed, the config document that
``perfbench/workloads.config_text`` generates is run by
``gradflow.runner.simulate`` in a temporary directory, and each output file
gives one line ``<workload> <seed> <file> <sha256>``: ``series.csv``,
``final.sgf`` (``last_valid.sgf`` after an abort) and every
``snapshot_NNN.sgf``.  ``report.txt``, which holds the wall time, and the
echoed ``config.cfg`` are left out.

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
import hashlib
import sys
import tempfile
from pathlib import Path


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
                outputs = (p for p in Path(tmp).iterdir() if p.suffix in (".csv", ".sgf"))
                for path in sorted(outputs):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{name} {seed} {path.name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
