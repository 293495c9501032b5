"""Measure the seed-0 baseline of every workload and write baseline.json.

    python3 perfbench/make_baseline.py

Run from the repository root.  Each workload runs once untraced and once
traced for ``run_seconds`` of BENCHMARK.json; the file keeps the generated
config, the run environment and both metric sets.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    baseline = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        baseline[name] = {"config": workloads.config_text(name, 0)}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
                 "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                capture_output=True, text=True, check=True,
            )
            *_, env_line, result_line = proc.stdout.strip().splitlines()
            result = json.loads(result_line)
            baseline[name]["env"] = json.loads(env_line)["env"]
            baseline[name][key] = {k: m["value"] for k, m in result["metrics"].items()}
            baseline[name][key + "_runs"] = result["attempted"]
            print(proc.stdout, flush=True)
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
