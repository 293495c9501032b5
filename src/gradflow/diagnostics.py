"""Per-instant observable records.

A :class:`DiagnosticsRecord` captures the scalar observables of one
instant: total energy, surface mass of the density, field extrema, and the
two sides of the dissipation identity

    dU/dt = -( m_x * ||V||^2 + m_psi * ||q||^2 )  integrated over the surface,

where the left side is approximated by a backward difference of recorded
energies (first order in the record spacing) and the right side is
evaluated from the instantaneous velocity and flux fields.  The harnesses
that run and compare whole simulations are in :mod:`gradflow.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import _QUIET, Evaluation
from .geometry import build_cache  # noqa: F401  (perfbench/spans.py traces this name)
from .geometry import covariant_norm_sq, surface_integral

__all__ = ["DiagnosticsRecord", "record"]


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
    ``mass_error`` is zero by construction.  A record at the time of
    ``prev`` has no energy rate either: its ``dissipation_lhs`` is absent.
    ``clamp_count`` is the cumulative clamp tally the caller reports.
    """
    state, mobilities = ev.state, ev.mobilities
    cache = ev.cache
    h, psi = state.h.values, state.psi.values

    # A state whose rates overflow is recorded as it is; the step from it
    # aborts.  Every full-grid intermediate is formed in the grid's five work
    # arrays ``w``, which the evaluation no longer uses.
    w = cache.grid._work
    with np.errstate(**_QUIET):
        sqrt_g = np.sqrt(cache.g_det, out=w[0])  # one area element for the four integrals
        u = surface_integral(ev.f, cache, sqrt_g, out=w[1])
        mass = surface_integral(psi, cache, sqrt_g, out=w[1])
        v = ev.velocity(out=w[1:3])
        v_sq = covariant_norm_sq(v, cache, out=v[0], work=w[3:5])
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
        span = state.t - prev.t
        dissipation_lhs = (u - prev.energy) / span if span else None

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
