"""Run orchestration and deterministic text outputs.

:func:`simulate` advances a configured problem to its final time and
returns the in-memory result, and writes these files when given an output
directory (:func:`compare` and :func:`sweep` write their own tables):

* ``series.csv`` -- one row per record, fixed column schema, values with
  17 significant digits; byte-identical across repeated single-threaded
  runs of the same configuration.
* ``snapshot_NNN.sgf`` -- binary states at the configured snapshot times,
  plus ``final.sgf`` (or ``last_valid.sgf`` after a solver abort).
* ``report.txt`` -- final diagnostics, clamp count, wall time, steps per
  second, and ``threads``: 2 where the solver shared each step with its
  helper thread (:func:`gradflow.spectral._pairs`), else 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .config import ConfigError, RunConfig, build_grid, check_dt, format_config, initial_state
from .diagnostics import (
    CompareResult,
    DiagnosticsRecord,
    compare_variants,
    convergence_sweep,
    record,
)
from .flow import (
    Evaluation,
    FlowState,
    Mobilities,
    SolverAbort,
    StepperConfig,
    evaluate,
    step,
)
from .snapshot import write_snapshot
from .spectral import _pairs

__all__ = [
    "RunResult",
    "simulate",
    "compare",
    "sweep",
    "CSV_HEADER",
    "write_series_csv",
]

CSV_HEADER = (
    "t,energy,mass,mass_error,h_min,h_max,psi_min,psi_max,"
    "dissipation_lhs,dissipation_rhs,clamp_count"
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_row(r: DiagnosticsRecord) -> str:
    lhs = "" if r.dissipation_lhs is None else _fmt(r.dissipation_lhs)
    return ",".join(
        (
            _fmt(r.t),
            _fmt(r.energy),
            _fmt(r.mass),
            _fmt(r.mass_error),
            _fmt(r.h_min),
            _fmt(r.h_max),
            _fmt(r.psi_min),
            _fmt(r.psi_max),
            lhs,
            _fmt(r.dissipation_rhs),
            str(r.clamp_count),
        )
    )


def write_series_csv(records: list[DiagnosticsRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(_csv_row(r) + "\n")


@dataclass
class RunResult:
    """Outcome of one simulation."""

    config: RunConfig
    records: list[DiagnosticsRecord]
    state: FlowState
    clamp_count: int
    aborted: bool
    abort_message: str | None
    wall_time: float


def _snapshot_steps(config: RunConfig, n_steps: int) -> dict[int, list[int]]:
    """Map step index -> configured snapshot indices hit at that step."""
    table: dict[int, list[int]] = {}
    for idx, t_snap in enumerate(config.snapshot_times):
        step_idx = min(n_steps, max(0, math.ceil(t_snap / config.dt - 1e-9)))
        table.setdefault(step_idx, []).append(idx)
    return table


def simulate(
    config: RunConfig,
    out_dir: str | Path | None = None,
    record_final_pair: bool = False,
) -> RunResult:
    """Advance the configured problem to ``t_end``.

    Records are taken at step 0, every ``record_every`` steps, and at the
    final step; ``record_final_pair`` additionally records the penultimate
    step so the last record interval spans exactly one dt (used by the
    dissipation-identity sweep).  When ``out_dir`` is given, outputs are
    written there incrementally so a solver abort still leaves the partial
    series behind.

    Raises
    ------
    ConfigError
        If the initial state cannot be read, or its surface has no finite
        geometry; nothing is written then.
    """
    t_start = time.perf_counter()
    grid = build_grid(config)
    mobilities = Mobilities(config.m_x, config.m_psi)
    stepper = StepperConfig(config.dt, config.scheme)
    energy = config.energy
    variant = config.variant
    # Read and evaluated before anything is written: bad initial data leaves
    # no output.  One evaluation per state serves its step and its record.
    state = initial_state(config, grid)
    try:
        ev = evaluate(state, variant, mobilities, energy)
    except FloatingPointError as exc:
        raise ConfigError(f"key 'initial.h': bad initial height: {exc}") from None
    clamp_count = 0  # cumulative over the stepped states

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.cfg").write_text(format_config(config))

    n_steps = int(math.floor(config.t_end / config.dt + 1e-9))
    snapshot_at = _snapshot_steps(config, n_steps)

    def should_record(i: int) -> bool:
        if i == 0 or i == n_steps:
            return True
        if record_final_pair and i == n_steps - 1:
            return True
        return i % config.record_every == 0

    csv_fh = open(out / "series.csv", "w", newline="") if out is not None else None
    records: list[DiagnosticsRecord] = []

    def take_record(ev: Evaluation) -> None:
        prev = records[-1] if records else None
        rec = record(ev, prev, clamp_count)
        records.append(rec)
        if csv_fh is not None:
            csv_fh.write(_csv_row(rec) + "\n")

    def take_snapshots(st: FlowState, i: int) -> None:
        if out is None:
            return
        for idx in snapshot_at.get(i, ()):
            write_snapshot(st, out / f"snapshot_{idx:03d}.sgf")

    if csv_fh is not None:
        csv_fh.write(CSV_HEADER + "\n")
    aborted = False
    abort_message = None
    try:
        take_record(ev)
        take_snapshots(state, 0)
        for i in range(1, n_steps + 1):
            clamp_count += ev.clamp_count
            last_valid = ev.state
            try:
                state = step(ev, stepper)
                ev = None  # release the old evaluation before the next is built
                ev = evaluate(state, variant, mobilities, energy)
            except (SolverAbort, FloatingPointError) as exc:
                # A step can leave finite fields whose geometry overflows: then
                # the evaluation of the new state fails, and the run ends at
                # the last state whose evaluation was finite.
                aborted = True
                abort_message = str(exc)
                if not isinstance(exc, SolverAbort):
                    abort_message += f" after step {i} (t = {state.t:.6g}); aborting"
                state = last_valid
                if out is not None:
                    write_snapshot(state, out / "last_valid.sgf")
                break
            if should_record(i):
                take_record(ev)
            take_snapshots(state, i)
    finally:
        if csv_fh is not None:
            csv_fh.close()

    wall = time.perf_counter() - t_start
    result = RunResult(
        config=config,
        records=records,
        state=state,
        clamp_count=clamp_count,
        aborted=aborted,
        abort_message=abort_message,
        wall_time=wall,
    )
    if out is not None:
        if not aborted:
            write_snapshot(state, out / "final.sgf")
        _write_report(result, out / "report.txt")
    return result


def _write_report(result: RunResult, path: Path) -> None:
    r = result.records[-1]
    lines = [
        f"status = {'aborted' if result.aborted else 'completed'}",
        f"steps = {result.state.step_index}",
        f"t_final = {_fmt(r.t)}",
        f"energy = {_fmt(r.energy)}",
        f"mass = {_fmt(r.mass)}",
        f"mass_error = {_fmt(r.mass_error)}",
        f"h_min = {_fmt(r.h_min)}",
        f"h_max = {_fmt(r.h_max)}",
        f"psi_min = {_fmt(r.psi_min)}",
        f"psi_max = {_fmt(r.psi_max)}",
        f"clamp_count = {result.clamp_count}",
        f"wall_time_seconds = {result.wall_time:.3f}",
        f"steps_per_second = {result.state.step_index / result.wall_time:.3f}",
        f"threads = {2 if _pairs(result.state.grid) else 1}",
    ]
    if result.abort_message:
        lines.insert(1, f"abort_message = {result.abort_message}")
    path.write_text("\n".join(lines) + "\n")


def compare(config: RunConfig, out_dir: str | Path) -> CompareResult:
    """Run the full-vs-normal-only pair and write paired outputs."""
    out = Path(out_dir)
    result = compare_variants(config)
    out.mkdir(parents=True, exist_ok=True)
    write_series_csv(result.records_full, out / "series_full.csv")
    write_series_csv(result.records_normal, out / "series_normal.csv")
    text = [
        f"transient_window = {result.transient_window!r}",
        f"energy_ordered = {'true' if result.energy_ordered else 'false'}",
        f"final_range_smaller = {'true' if result.final_range_smaller else 'false'}",
    ]
    (out / "compare.txt").write_text("\n".join(text) + "\n")
    return result


def sweep(
    config: RunConfig,
    dt_ladder: list[float],
    out_dir: str | Path,
    quantity: str = "mass_error",
):
    """Run a dt ladder and write ``sweep.csv`` with errors and orders."""
    out = Path(out_dir)
    for dt in dt_ladder:
        check_dt(dt, config.t_end, "--dt-ladder entry")
    configs = [replace(config, dt=dt) for dt in dt_ladder]
    rows = convergence_sweep(configs, quantity)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", newline="") as fh:
        fh.write(f"dt,{quantity},observed_order,dissipation_mismatch\n")
        for row in rows:
            order = "" if row.observed_order is None else _fmt(row.observed_order)
            mismatch = (
                "" if row.dissipation_mismatch is None else _fmt(row.dissipation_mismatch)
            )
            fh.write(f"{_fmt(row.parameter)},{_fmt(row.error)},{order},{mismatch}\n")
    return rows
