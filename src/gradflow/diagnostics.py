"""Observables, conservation/dissipation verification, and sweep harnesses.

A :class:`DiagnosticsRecord` captures the scalar observables of one
instant: total energy, surface mass of the density, field extrema, and the
two sides of the dissipation identity

    dU/dt = -( m_x * ||V||^2 + m_psi * ||q||^2 )  integrated over the surface,

where the left side is approximated by a backward difference of recorded
energies (first order in the record spacing) and the right side is
evaluated from the instantaneous velocity and flux fields.

The module also provides two harnesses used by the verification suite and
the command-line tool: a convergence sweep over a dt ladder, and a paired
full-vs-normal-only comparison run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .flow import _QUIET, Evaluation, ModelVariant
from .geometry import build_cache  # noqa: F401  (perfbench/spans.py traces this name)
from .geometry import covariant_norm_sq, surface_integral

__all__ = [
    "DiagnosticsRecord",
    "record",
    "ConvergenceRow",
    "convergence_sweep",
    "CompareResult",
    "compare_variants",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Scalar observables of one recorded instant."""

    t: float
    energy: float
    mass: float
    mass_error: float
    h_min: float
    h_max: float
    psi_min: float
    psi_max: float
    dissipation_lhs: float | None
    dissipation_rhs: float
    clamp_count: int


def record(
    ev: Evaluation,
    prev: DiagnosticsRecord | None = None,
    clamp_count: int = 0,
) -> DiagnosticsRecord:
    """Evaluate every observable at ``ev.state`` from its evaluation.

    ``ev`` is the :func:`~gradflow.flow.evaluate` result that the step from
    this state also uses; the record reads its state, mobilities, geometry,
    energy density and rates, and transforms nothing.  ``prev`` supplies the
    backward-difference energy rate and the reference mass of the initial
    record; on the first record ``dissipation_lhs`` is absent and
    ``mass_error`` is zero by construction.  ``clamp_count`` is the
    cumulative clamp tally the caller reports.
    """
    state, mobilities = ev.state, ev.mobilities
    cache = ev.cache
    h, psi = state.h.values, state.psi.values

    # A state whose rates overflow is recorded as it is; the step from it
    # aborts.  Every full-grid intermediate is formed in the grid's five work
    # arrays ``w``, which the evaluation no longer uses.
    w = cache.grid._work()
    with np.errstate(**_QUIET):
        sqrt_g = np.sqrt(cache.g_det, out=w[0])  # one area element for the four integrals
        u = surface_integral(ev.f, cache, sqrt_g, out=w[1])
        mass = surface_integral(psi, cache, sqrt_g, out=w[1])
        v_sq = covariant_norm_sq(ev.v, cache, out=w[1], work=w[2:4])
        normal = np.square(ev.dth, out=w[2])
        normal /= cache.g_det
        v_sq += normal
        v_part = surface_integral(v_sq, cache, sqrt_g, out=w[2])
        q = ev.flux(out=w[1:3])
        q_sq = covariant_norm_sq(q, cache, out=q[0], work=w[3:5])
        dissipation_rhs = -(
            mobilities.m_x * v_part
            + mobilities.m_psi * surface_integral(q_sq, cache, sqrt_g, out=w[2])
        )

    if prev is None:
        mass_error = 0.0
        dissipation_lhs = None
    else:
        mass0 = prev.mass - prev.mass_error
        mass_error = mass - mass0
        dissipation_lhs = (u - prev.energy) / (state.t - prev.t)

    return DiagnosticsRecord(
        t=state.t,
        energy=u,
        mass=mass,
        mass_error=mass_error,
        h_min=float(h.min()),
        h_max=float(h.max()),
        psi_min=float(psi.min()),
        psi_max=float(psi.max()),
        dissipation_lhs=dissipation_lhs,
        dissipation_rhs=dissipation_rhs,
        clamp_count=clamp_count,
    )


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


def _final_step_mismatch(records: list[DiagnosticsRecord], dt: float) -> float | None:
    if len(records) < 2:
        return None
    last, prev = records[-1], records[-2]
    if not math.isclose(last.t - prev.t, dt, rel_tol=1e-6):
        return None
    lhs = (last.energy - prev.energy) / (last.t - prev.t)
    rhs = prev.dissipation_rhs
    if rhs == 0.0:
        return None
    return abs(lhs - rhs) / abs(rhs)


def convergence_sweep(configs: list, quantity: str = "mass_error") -> list[ConvergenceRow]:
    """Run a ladder of configurations and report errors with observed orders.

    Parameters
    ----------
    configs : list of RunConfig
        At least three configurations of the same physical problem on the
        same grid to the same final time, differing in ``dt``.
    quantity : {"mass_error", "trajectory_error"}
        The error measure driving the observed order.  ``trajectory_error``
        measures the final (h, psi) fields against a reference run at a
        quarter of the smallest ladder dt.
    """
    from .runner import simulate  # local import; runner depends on this module

    if len(configs) < 3:
        raise ValueError(f"convergence sweep needs >= 3 ladder points, got {len(configs)}")
    if quantity not in ("mass_error", "trajectory_error"):
        raise ValueError(f"unknown sweep quantity {quantity!r}")
    t_ends = {c.t_end for c in configs}
    if len(t_ends) > 1:
        raise ValueError(f"ladder configurations disagree on t_end: {sorted(t_ends)}")
    grids = {(c.nx, c.ny, c.lx, c.ly) for c in configs}
    if len(grids) > 1:
        raise ValueError(
            "ladder configurations disagree on the grid (nx, ny, lx, ly): "
            f"{sorted(grids)}"
        )

    results = [simulate(c, record_final_pair=True) for c in configs]

    reference = None
    if quantity == "trajectory_error":
        finest = min(configs, key=lambda c: c.dt)
        reference = simulate(replace(finest, dt=finest.dt / 4.0))

    rows: list[ConvergenceRow] = []
    for config, result in zip(configs, results):
        if quantity == "mass_error":
            error = abs(result.records[-1].mass_error)
        else:
            err_h = float(
                abs(result.state.h.values - reference.state.h.values).max()
            )
            err_psi = float(
                abs(result.state.psi.values - reference.state.psi.values).max()
            )
            error = max(err_h, err_psi)
        order = None
        if rows:
            prev = rows[-1]
            if prev.error > 0.0 and error > 0.0 and prev.parameter != config.dt:
                order = math.log(prev.error / error) / math.log(prev.parameter / config.dt)
        rows.append(
            ConvergenceRow(
                parameter=config.dt,
                error=error,
                observed_order=order,
                dissipation_mismatch=_final_step_mismatch(result.records, config.dt),
            )
        )
    return rows


@dataclass(frozen=True)
class CompareResult:
    """Paired full-vs-normal-only time series and the two ordering claims.

    ``energy_ordered``: the fully coupled run has energy at or below the
    normal-only run at every recorded time past the transient window.
    ``final_range_smaller``: the density extrema spread at the final time
    is no larger for the fully coupled run.
    """

    records_full: list[DiagnosticsRecord]
    records_normal: list[DiagnosticsRecord]
    energy_ordered: bool
    final_range_smaller: bool
    transient_window: float


def compare_variants(base_config, transient_window: float = 0.05) -> CompareResult:
    """Run FULL_COUPLED and NORMAL_ONLY from identical initial data."""
    from .runner import simulate

    full = simulate(replace(base_config, variant=ModelVariant.FULL_COUPLED))
    normal = simulate(replace(base_config, variant=ModelVariant.NORMAL_ONLY))

    tol = 1e-10 * abs(full.records[0].energy)
    energy_ordered = all(
        rf.energy <= rn.energy + tol
        for rf, rn in zip(full.records, normal.records)
        if rf.t >= transient_window
    )
    rf, rn = full.records[-1], normal.records[-1]
    final_range_smaller = (rf.psi_max - rf.psi_min) <= (rn.psi_max - rn.psi_min)
    return CompareResult(
        records_full=full.records,
        records_normal=normal.records,
        energy_ordered=energy_ordered,
        final_range_smaller=final_range_smaller,
        transient_window=transient_window,
    )
