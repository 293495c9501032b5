"""Runs and their files: one simulation, the two harnesses, every output.

:func:`simulate` advances a configured problem to its final time;
:func:`convergence_sweep` runs a dt ladder and reports observed orders;
:func:`compare_variants` runs the fully coupled and normal-only variants
from identical initial data.  Each returns its result, and given an output
directory writes:

* ``series.csv`` (``series_full.csv`` and ``series_normal.csv`` for the
  comparison) -- one row per record, one column per field of
  :class:`~gradflow.diagnostics.DiagnosticsRecord`, 17 significant digits;
  byte-identical across repeated single-threaded runs.
* ``config.cfg``, ``snapshot_NNN.sgf`` at the snapshot times, and
  ``final.sgf`` (``last_valid.sgf`` after a solver abort).
* ``report.txt`` -- final diagnostics, clamp count, wall time, steps per
  second, and ``threads``: 2 where the solver shared each step with its
  helper thread (:func:`gradflow.spectral._pairs`), else 1.
* ``sweep.csv`` -- dt, error, observed order and dissipation mismatch per
  ladder point; ``compare.txt`` -- the transient window and the two
  ordering claims.
"""

from __future__ import annotations

import errno
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

from .config import ConfigError, RunConfig, build_grid, format_config, initial_state
from .diagnostics import DiagnosticsRecord, record
from .flow import (
    FlowState,
    Mobilities,
    ModelVariant,
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
    "ConvergenceRow",
    "convergence_sweep",
    "CompareResult",
    "compare_variants",
    "CSV_HEADER",
    "write_series_csv",
]

# The series columns are the record's fields, in their order.
_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))
_row_values = attrgetter(*_COLUMNS)
CSV_HEADER = ",".join(_COLUMNS)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _cell(x: float | int | None) -> str:
    if x is None:
        return ""
    return str(x) if isinstance(x, int) else _fmt(x)


def _csv_row(r: DiagnosticsRecord) -> str:
    return ",".join(map(_cell, _row_values(r)))


def write_series_csv(records: list[DiagnosticsRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(_csv_row(r) + "\n")


@dataclass(eq=False)
class RunResult:
    """Outcome of one simulation; compared by identity, as it holds arrays."""

    config: RunConfig
    records: list[DiagnosticsRecord]
    state: FlowState
    clamp_count: int
    abort_message: str | None
    wall_time: float

    @property
    def aborted(self) -> bool:
        return self.abort_message is not None


def _step_count(config: RunConfig) -> int:
    return int(math.floor(config.t_end / config.dt + 1e-9))


def simulate(config: RunConfig, out_dir: str | Path | None = None) -> RunResult:
    """Advance the configured problem to ``t_end``.

    Every state, the first included, goes through the same loop body: it is
    recorded at step 0, every ``record_every`` steps and the final step, its
    snapshots are written, and it is stepped.  With ``out_dir``, each
    ``series.csv`` row is written as it is taken, so an abort still leaves
    the partial series.  A step whose fields are not finite, whose density
    leaves the energy's ``domain``, or whose surface has no finite curvature
    ends the run as an abort at the state before it.

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

    n_steps = _step_count(config)
    snapshot_at: dict[int, list[int]] = {}  # step index -> snapshot indices
    for idx, t_snap in enumerate(config.snapshot_times):
        snapshot_at.setdefault(math.ceil(t_snap / config.dt - 1e-9), []).append(idx)

    records: list[DiagnosticsRecord] = []
    abort_message = None
    with open(out / "series.csv", "w", newline="") if out is not None else nullcontext() as csv_fh:
        if csv_fh is not None:
            csv_fh.write(CSV_HEADER + "\n")
        for i in range(n_steps + 1):
            if i == n_steps or i % config.record_every == 0:
                records.append(record(ev, records[-1] if records else None, clamp_count))
                if csv_fh is not None:
                    csv_fh.write(_csv_row(records[-1]) + "\n")
            if out is not None:
                for idx in snapshot_at.get(i, ()):
                    write_snapshot(state, out / f"snapshot_{idx:03d}.sgf")
            if i == n_steps:
                break
            clamp_count += ev.clamp_count
            try:
                new = step(ev, stepper)
                ev = None  # release the old evaluation before the next is built
                ev = evaluate(new, variant, mobilities, energy)
            except (SolverAbort, FloatingPointError) as exc:
                # A step can leave finite fields whose geometry overflows: then
                # the evaluation of the new state fails, and the run ends at
                # the last state whose evaluation was finite, ``state``.
                abort_message = str(exc)
                if not isinstance(exc, SolverAbort):
                    abort_message += f" after step {i + 1} (t = {new.t:.6g}); aborting"
                break
            state = new

    result = RunResult(
        config=config,
        records=records,
        state=state,
        clamp_count=clamp_count,
        abort_message=abort_message,
        wall_time=time.perf_counter() - t_start,
    )
    if out is not None:
        write_snapshot(state, out / ("last_valid.sgf" if result.aborted else "final.sgf"))
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


@dataclass(frozen=True)
class ConvergenceRow:
    """One ladder point of a convergence sweep.

    ``observed_order`` is the successive-ratio order against the previous
    ladder point (absent on the first row, and whenever either error
    vanishes).  ``dissipation_mismatch`` is the relative gap between the
    backward-difference energy rate over the final step and the
    instantaneous dissipation integral at the step start.
    """

    parameter: float
    error: float
    observed_order: float | None
    dissipation_mismatch: float | None


def _final_step_mismatch(records: list[DiagnosticsRecord]) -> float | None:
    # The last two records of a completed sweep run are one dt apart.
    lhs, rhs = records[-1].dissipation_lhs, records[-2].dissipation_rhs
    if rhs == 0.0:
        return None
    return abs(lhs - rhs) / abs(rhs)


def _output_dir(out_dir: str | Path) -> Path:
    """``out_dir``, left uncreated; it, or else its nearest existing ancestor, must be a directory."""
    out = Path(out_dir)
    if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(out))
    return out


def _completed(config: RunConfig, run: str) -> RunResult:
    """:func:`simulate` of ``config``; if the run aborts, :class:`SolverAbort`
    naming ``run`` and carrying its state."""
    result = simulate(config)
    if result.aborted:
        raise SolverAbort(f"{run} aborted: {result.abort_message}", last_valid=result.state)
    return result


def convergence_sweep(
    config: RunConfig,
    dts: list[float],
    quantity: str = "mass_error",
    out_dir: str | Path | None = None,
) -> list[ConvergenceRow]:
    """Run ``config`` at each of ``dts`` and report errors with observed orders.

    Parameters
    ----------
    config : RunConfig
        The problem; its ``dt`` is replaced by each ladder point in turn.
    dts : list of float
        At least three time steps, each obeying the ``stepper.dt`` rule for
        the config's ``t_end``; a ladder point that breaks it raises
        :class:`~gradflow.config.ConfigError` before anything runs.
    quantity : {"mass_error", "trajectory_error"}
        The error measure driving the observed order.  ``trajectory_error``
        measures the final (h, psi) fields against a reference run at a
        quarter of the smallest ladder dt.
    out_dir : path, optional
        Where ``sweep.csv`` is written once the ladder has run; a path that
        cannot be made a directory raises ``OSError`` before the first run.

    Raises
    ------
    SolverAbort
        If a run aborts, naming the run; nothing is written then.
    """
    if len(dts) < 3:
        raise ValueError(f"convergence sweep needs >= 3 ladder points, got {len(dts)}")
    if quantity not in ("mass_error", "trajectory_error"):
        raise ValueError(f"unknown sweep quantity {quantity!r}")
    # Every run is configured, and so checked, before the first one starts.
    # A ladder run records its last two steps, one dt apart, which
    # _final_step_mismatch reads.
    ladder = [replace(config, dt=dt) for dt in dts]
    ladder = [replace(c, record_every=max(1, _step_count(c) - 1)) for c in ladder]
    finer = replace(config, dt=min(dts) / 4.0) if quantity == "trajectory_error" else None
    out = None if out_dir is None else _output_dir(out_dir)
    results = [_completed(c, f"the run at dt = {c.dt!r}") for c in ladder]
    if finer is not None:
        reference = _completed(finer, f"the trajectory reference at dt = {finer.dt!r}").state

    rows: list[ConvergenceRow] = []
    for dt, result in zip(dts, results):
        if quantity == "mass_error":
            error = abs(result.records[-1].mass_error)
        else:
            err_h = float(abs(result.state.h.values - reference.h.values).max())
            err_psi = float(abs(result.state.psi.values - reference.psi.values).max())
            error = max(err_h, err_psi)
        order = None
        if rows:
            prev = rows[-1]
            if prev.error > 0.0 and error > 0.0 and prev.parameter != dt:
                order = math.log(prev.error / error) / math.log(prev.parameter / dt)
        rows.append(
            ConvergenceRow(
                parameter=dt,
                error=error,
                observed_order=order,
                dissipation_mismatch=_final_step_mismatch(result.records),
            )
        )

    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "sweep.csv", "w", newline="") as fh:
            fh.write(f"dt,{quantity},observed_order,dissipation_mismatch\n")
            for row in rows:
                cells = (row.parameter, row.error, row.observed_order, row.dissipation_mismatch)
                fh.write(",".join(map(_cell, cells)) + "\n")
    return rows


@dataclass(frozen=True, eq=False)
class CompareResult:
    """The full and normal-only runs and the two ordering claims; compared by
    identity.

    ``energy_ordered``: the fully coupled run has energy at or below the
    normal-only run at every recorded time past the transient window.
    ``final_range_smaller``: the density extrema spread at the final time
    is no larger for the fully coupled run.
    """

    full: RunResult
    normal: RunResult
    energy_ordered: bool
    final_range_smaller: bool
    transient_window: float


# The energy ordering of compare_variants is judged past this time.
TRANSIENT_WINDOW = 0.05


def compare_variants(base_config: RunConfig, out_dir: str | Path | None = None) -> CompareResult:
    """Run FULL_COUPLED and NORMAL_ONLY from identical initial data; with
    ``out_dir``, write both series and ``compare.txt`` there.  A run that
    aborts raises :class:`SolverAbort` naming its variant, before anything
    is written; an ``out_dir`` that cannot be made a directory raises
    ``OSError`` before the first run."""
    out = None if out_dir is None else _output_dir(out_dir)
    full, normal = (
        _completed(replace(base_config, variant=v), f"the {v.value} variant")
        for v in (ModelVariant.FULL_COUPLED, ModelVariant.NORMAL_ONLY)
    )

    tol = 1e-10 * abs(full.records[0].energy)
    energy_ordered = all(
        rf.energy <= rn.energy + tol
        for rf, rn in zip(full.records, normal.records)
        if rf.t >= TRANSIENT_WINDOW
    )
    rf, rn = full.records[-1], normal.records[-1]
    final_range_smaller = (rf.psi_max - rf.psi_min) <= (rn.psi_max - rn.psi_min)

    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_series_csv(full.records, out / "series_full.csv")
        write_series_csv(normal.records, out / "series_normal.csv")
        text = [
            f"transient_window = {TRANSIENT_WINDOW!r}",
            f"energy_ordered = {'true' if energy_ordered else 'false'}",
            f"final_range_smaller = {'true' if final_range_smaller else 'false'}",
        ]
        (out / "compare.txt").write_text("\n".join(text) + "\n")
    return CompareResult(
        full=full,
        normal=normal,
        energy_ordered=energy_ordered,
        final_range_smaller=final_range_smaller,
        transient_window=TRANSIENT_WINDOW,
    )
