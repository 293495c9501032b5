"""Span recorder and the per-layer metrics derived from it.

The tracer wraps public entry points of gradflow and of ``scipy.fft`` and
rebinds the module-level names the solver looks up at call time, so no file
of the program changes.  A span holds a name, a start, an end and the index of
its parent span; spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import os
import statistics
from contextlib import contextmanager
from time import perf_counter

FFT = ("spectral.rfft2", "spectral.irfft2")
CLAMP = ("energy.clamp", "energy.count_violations")


class Tracer:
    """In-memory spans plus byte counters, one tracer per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.bytes: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count_bytes=None):
        """``fn`` recorded as a span; ``count_bytes(args, result)`` adds to
        ``self.bytes[name]`` when given."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count_bytes is not None:
                tracer.bytes[name] = tracer.bytes.get(name, 0) + count_bytes(args, result)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "start": self.starts,
                    "end": self.ends,
                    "parent": self.parents,
                    "bytes": self.bytes,
                },
                fh,
            )


def _fft_bytes(args, result) -> int:
    # Computed from array sizes: input plus output, each touched once.
    return int(args[0].nbytes + result.nbytes)


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[1])


@contextmanager
def installed(tracer: Tracer):
    """Rebind the traced names for the duration of the block."""
    import scipy.fft

    import gradflow.diagnostics
    import gradflow.flow
    import gradflow.runner
    from gradflow.energy import FloryHuggins

    targets = [
        # spectral and flow._increment both reach the FFT through scipy.fft.
        (scipy.fft, "rfft2", "spectral.rfft2", _fft_bytes),
        (scipy.fft, "irfft2", "spectral.irfft2", _fft_bytes),
        (gradflow.flow, "build_cache", "geometry.build_cache", None),
        (gradflow.diagnostics, "build_cache", "geometry.build_cache", None),
        (gradflow.flow, "stabilization_coefficients", "flow.stabilization", None),
        (gradflow.runner, "step", "flow.step", None),
        (gradflow.runner, "record", "diagnostics.record", None),
        (gradflow.runner, "write_snapshot", "snapshot.write", _file_bytes),
        (FloryHuggins, "density", "energy.density", None),
        (FloryHuggins, "clamp", "energy.clamp", None),
        (FloryHuggins, "count_violations", "energy.count_violations", None),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, count in targets:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def self_times(tracer: Tracer) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in tracer.names]
    for idx, parent in enumerate(tracer.parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, kids in enumerate(children):
        start, end = tracer.starts[idx], tracer.ends[idx]
        covered = 0.0
        reach = start
        for kid in sorted(kids, key=tracer.starts.__getitem__):
            lo = max(tracer.starts[kid], reach)
            hi = min(tracer.ends[kid], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_samples(tracer: Tracer, n_steps: int) -> dict:
    """Per-layer figures of one traced ``simulate`` call.

    Scalars are per-step or per-run figures of this run; the lists hold one
    entry per call, for percentiles pooled over several runs.
    """
    self_t = self_times(tracer)
    names, parents = tracer.names, tracer.parents
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    ms = 1e3

    def select(pred):
        return [i for i, name in enumerate(names) if pred(i, name)]

    def total(idx):
        return sum(dur[i] for i in idx)

    sim = names.index("runner.simulate")
    fft = select(lambda i, n: n in FFT)
    cache = select(lambda i, n: n == "geometry.build_cache")
    density = select(lambda i, n: n == "energy.density")
    # clamp() calls count_violations() itself; count each outer call once.
    clamp = select(
        lambda i, n: n in CLAMP and (parents[i] < 0 or names[parents[i]] != "energy.clamp")
    )
    steps = select(lambda i, n: n == "flow.step")
    stab = select(lambda i, n: n == "flow.stabilization")
    records = select(lambda i, n: n == "diagnostics.record")
    writes = select(lambda i, n: n == "snapshot.write")
    setup = {n: dur[i] * ms for i, n in enumerate(names) if parents[i] < 0 and i != sim}

    return {
        "spectral.fft_calls_per_step": len(fft) / n_steps,
        "spectral.fft_ms_per_step": total(fft) * ms / n_steps,
        "spectral.fft_bytes_per_step": sum(tracer.bytes.get(n, 0) for n in FFT) / n_steps,
        "geometry.build_cache_calls_per_step": len(cache) / n_steps,
        "geometry.build_cache_self_ms_per_step": sum(self_t[i] for i in cache) * ms / n_steps,
        "energy.density_calls_per_step": len(density) / n_steps,
        "energy.density_ms_per_step": total(density) * ms / n_steps,
        "energy.clamp_calls_per_step": len(clamp) / n_steps,
        "energy.clamp_ms_per_step": total(clamp) * ms / n_steps,
        "flow.stabilization_ms_per_step": total(stab) * ms / n_steps,
        "diagnostics.record_calls": len(records),
        "diagnostics.record_share": total(records) / dur[sim],
        "snapshot.write_calls": len(writes),
        "snapshot.bytes_written": tracer.bytes.get("snapshot.write", 0),
        "runner.loop_self_ms_per_step": self_t[sim] * ms / n_steps,
        "config.parse_ms": setup["config.parse"],
        "spectral.grid_build_ms": setup["spectral.grid_build"],
        "config.initial_state_ms": setup["config.initial_state"],
        "wall_s": dur[sim],
        "step_ms": [dur[i] * ms for i in steps],
        "step_self_ms": [self_t[i] * ms for i in steps],
        "record_ms": [dur[i] * ms for i in records],
        "write_ms": [dur[i] * ms for i in writes],
    }


def per_layer_metrics(samples: list[dict], untraced_wall_s: list[float]) -> dict[str, float]:
    """Combine the samples of several traced runs into the per-layer metrics.

    Per-run scalars take their median over runs; per-call timings are pooled
    before their percentiles are taken.
    """
    pooled = {key: [x for s in samples for x in s[key]] for key in
              ("step_ms", "step_self_ms", "record_ms", "write_ms")}
    out = {}
    for key, value in samples[0].items():
        if not isinstance(value, list) and key != "wall_s":
            out[key] = statistics.median(s[key] for s in samples)
    out["flow.step_ms_p50"] = statistics.median(pooled["step_ms"])
    out["flow.step_ms_p99"] = percentile(pooled["step_ms"], 99)
    out["flow.step_self_ms"] = statistics.median(pooled["step_self_ms"])
    out["diagnostics.record_ms_p50"] = statistics.median(pooled["record_ms"])
    out["diagnostics.record_ms_p99"] = percentile(pooled["record_ms"], 99)
    out["snapshot.write_ms_p50"] = statistics.median(pooled["write_ms"])
    traced = statistics.median(s["wall_s"] for s in samples)
    out["trace.overhead_pct"] = 100.0 * (traced / statistics.median(untraced_wall_s) - 1.0)
    return out
