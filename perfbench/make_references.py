"""Regenerate references.json: the final record of every workload and seed variant.

    python3 perfbench/make_references.py

Run from the repository root, on a commit whose numerics are trusted.  Each
of the N_VARIANTS inputs of each workload runs once, single-threaded; a run
that fails any other part of the correctness gate stops the script.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    work = root / ".bench_out" / "references"
    work.mkdir(parents=True, exist_ok=True)
    references: dict[str, dict[str, dict]] = {}
    for name in workloads.OVERRIDES:
        references[name] = {}
        for variant in range(workloads.N_VARIANTS):
            config = work / f"{name}-{variant}.cfg"
            config.write_text(workloads.config_text(name, variant))
            report = run.run_worker(root, config, work / "out", False, None)
            # Gate against the run's own final record: every check but the
            # reference comparison applies.
            reasons = run.failures(name, variant, report, {name: {str(variant): report and report["final"]}})
            if reasons:
                print(f"{name} variant {variant}: " + "; ".join(reasons), file=sys.stderr)
                return 1
            references[name][str(variant)] = {k: report["final"][k] for k in run.COMPARED}
            print(name, variant, report["final"]["energy"], flush=True)
    (run.HERE / "references.json").write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
