"""One benchmark run in a fresh process: set up, simulate, report.

    python3 perfbench/worker.py CONFIG OUT_DIR TRACE [SPANS_JSON]

``TRACE`` is 0 or 1.  The run imports gradflow, parses CONFIG, builds the
grid and the initial state (the set-up time), then calls
``gradflow.runner.simulate`` with file outputs in OUT_DIR (the wall time).
The last line of standard output is one JSON object with the timings, the
peak RSS, the records the correctness gate needs and, when traced, the
per-layer samples; a traced run also writes its spans to SPANS_JSON.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def main(argv: list[str]) -> None:
    config_path, out_dir, trace = argv[0], Path(argv[1]), argv[2] == "1"
    spans_path = argv[3] if len(argv) > 3 else None

    # Set-up time starts at the gradflow import, which loads numpy and scipy.
    t0 = time.perf_counter()
    from gradflow import build_grid, get_fft_workers, initial_state, parse_config, simulate

    import numpy as np
    import scipy

    if trace:
        import spans

        tracer = spans.Tracer()
        span, install = tracer.span, lambda: spans.installed(tracer)
    else:
        span, install = (lambda name: nullcontext()), nullcontext

    text = Path(config_path).read_text()
    with span("config.parse"):
        config = parse_config(text)
    with span("spectral.grid_build"):
        grid = build_grid(config)
    with span("config.initial_state"):
        initial_state(config, grid)
    setup_s = time.perf_counter() - t0

    with install(), span("runner.simulate"):
        t1 = time.perf_counter()
        result = simulate(config, out_dir=out_dir)
        wall_s = time.perf_counter() - t1

    state = result.state
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "steps": state.step_index,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "aborted": result.aborted,
        "finite": bool(np.isfinite(state.h.values).all() and np.isfinite(state.psi.values).all()),
        "energies": [r.energy for r in result.records],
        "final": dataclasses.asdict(result.records[-1]),
        "series_sha256": hashlib.sha256((out_dir / "series.csv").read_bytes()).hexdigest(),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "gradflow_fft_workers": get_fft_workers(),
        },
    }
    if trace:
        report["layers"] = spans.layer_samples(tracer, max(state.step_index, 1))
        if spans_path:
            tracer.write(spans_path)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
