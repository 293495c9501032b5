"""Evolution equations and time stepping for the coupled (h, psi) flow.

The continuous model is the steepest-descent flow of the surface energy
``U = integral f(psi) dS`` in which the surface position moves by L2
descent (mobility ``1/m_x``) and the conserved density by H^-1 descent
(mobility ``1/m_psi``).  In height-observer variables the system reads

* tangential velocity:  ``m_x v = -psi f''(psi) grad psi``,
* height equation:      ``m_x dh/dt = |g| sigma(psi) hfrak``,
* density equation:     Truesdell rate of psi balanced by the surface
  diffusion ``(f'' lap psi + f''' |grad psi|^2) / m_psi``.

Four variants are provided:

``FULL_COUPLED``
    The complete system above; the density equation is solved for
    ``d psi/dt`` with the transport terms moved to the right-hand side.
``VELOCITY_SUBSTITUTED``
    The same flow with the height rate substituted into the density
    equation, leaving a single scalar equation (algebraically identical in
    continuous time; a useful cross-check discretely).
``NORMAL_ONLY``
    Tangential velocity constrained to zero; only normal motion and
    transport remain.
``MATERIAL_GAUGE_QUADRATIC``
    The quadratic-energy flow derived in the material gauge of surface
    independence: the spatial force terms flip sign relative to the
    Truesdell gauge.  Not a descent direction for U; with ``m_x << m_psi``
    it can raise the energy, which is exactly what the gauge-comparison
    diagnostics exercise.  Requires the Quadratic energy preset.

Spatial derivatives are spectral, except the gradient of the tangential
velocity: with ``v = phi grad psi`` it is ``phi' grad psi grad psi + phi
D2 psi``, formed pointwise from the derivatives of ``psi``.  A step
therefore makes four transform pairs: the derivatives of ``h`` and of
``psi``, and the two damped increments.

Time stepping is first-order: plain explicit Euler, or a stabilized
semi-implicit variant (IMEX1) in which the update increment is damped by
``1/(1 + dt * a * |k|^2)`` mode-by-mode.  The damping coefficients default
to the per-step grid maxima of the linearized diffusion coefficients and
leave any zero right-hand side exactly zero, so static states stay frozen
to the bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .energy import EnergyModel, Quadratic
from .geometry import (
    GeometryCache,
    build_cache,
    covariant_square,
    hessian_trace,
    truesdell_solve,
)
from .spectral import (
    Grid,
    ScalarField,
    VectorField2,
    dealias_solve,
    derivatives,
)

__all__ = [
    "ModelVariant",
    "Scheme",
    "Mobilities",
    "StepperConfig",
    "FlowState",
    "SolverAbort",
    "Evaluation",
    "evaluate",
    "stabilization_coefficients",
    "step",
]


class ModelVariant(enum.Enum):
    FULL_COUPLED = "full"
    VELOCITY_SUBSTITUTED = "velocity_substituted"
    NORMAL_ONLY = "normal_only"
    MATERIAL_GAUGE_QUADRATIC = "material_gauge_quadratic"


class Scheme(enum.Enum):
    EXPLICIT_EULER = "explicit_euler"
    IMEX1 = "imex1"


@dataclass(frozen=True)
class Mobilities:
    """Immobility coefficients scaling the two descent directions."""

    m_x: float
    m_psi: float

    def __post_init__(self) -> None:
        if not (self.m_x > 0.0):
            raise ValueError(f"m_x must be > 0, got {self.m_x}")
        if not (self.m_psi > 0.0):
            raise ValueError(f"m_psi must be > 0, got {self.m_psi}")


@dataclass(frozen=True)
class StepperConfig:
    """Time-step size, scheme selection, and stabilization coefficients.

    ``stab_h``/``stab_psi`` equal to 0 select the automatic per-step
    coefficients; positive values override them.  Explicit Euler ignores
    both.
    """

    dt: float
    scheme: Scheme = Scheme.IMEX1
    stab_h: float = 0.0
    stab_psi: float = 0.0

    def __post_init__(self) -> None:
        if not (self.dt > 0.0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.stab_h < 0.0 or self.stab_psi < 0.0:
            raise ValueError("stabilization coefficients must be >= 0")


@dataclass
class FlowState:
    """Instantaneous simulation state."""

    t: float
    h: ScalarField
    psi: ScalarField
    step_index: int = 0

    @property
    def grid(self) -> Grid:
        return self.h.grid


class SolverAbort(RuntimeError):
    """Raised when a step produces non-finite fields.

    Carries the last valid state so callers can dump it for post-mortem
    inspection.
    """

    def __init__(self, message: str, last_valid: FlowState):
        super().__init__(message)
        self.last_valid = last_valid


def _require_quadratic(variant: ModelVariant, energy: EnergyModel) -> None:
    if variant is ModelVariant.MATERIAL_GAUGE_QUADRATIC and not isinstance(
        energy, Quadratic
    ):
        raise ValueError(
            "the material-gauge variant is defined for the Quadratic energy only"
        )


# ---------------------------------------------------------------------------
# Evaluation of one state

# Non-finite values are reported by the finite check in :func:`step` (as a
# SolverAbort), not by numpy floating-point warnings.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


@dataclass
class Evaluation:
    """Everything the flow needs from one state, built by :func:`evaluate`.

    :func:`step` and :func:`gradflow.diagnostics.record` both read it, so a
    recorded state is evaluated once.  Besides the rates it keeps what the
    record reads: the energy density ``f`` and its second derivative ``fpp``
    at the clamped density, the raw flat gradient ``psi_x, psi_y`` of the
    density, and ``clamp_count``, the number of clamped points.
    ``a_h``/``a_psi`` are the damping coefficients the step applies.
    """

    state: FlowState
    mobilities: Mobilities
    cache: GeometryCache
    psi_x: np.ndarray
    psi_y: np.ndarray
    clamp_count: int
    f: np.ndarray
    fpp: np.ndarray
    dth: ScalarField
    v: VectorField2
    rhs_psi: ScalarField
    a_h: float
    a_psi: float

    def flux(self) -> VectorField2:
        """Covariant proxy of the conserved-density flux, ``-f'' grad psi / m_psi``."""
        grid = self.state.grid
        factor = -self.fpp / self.mobilities.m_psi
        return VectorField2(
            ScalarField(grid, factor * self.psi_x),
            ScalarField(grid, factor * self.psi_y),
        )


def evaluate(
    state: FlowState,
    variant: ModelVariant,
    mobilities: Mobilities,
    energy: EnergyModel,
    stepper: StepperConfig | None = None,
) -> Evaluation:
    """Evaluate the flow at ``state`` in one pass.

    * height rate ``|g| sigma(psi) hfrak / m_x`` (opposite sign for the
      material-gauge variant);
    * flat components of the tangential velocity, ``-psi f''(psi) grad psi
      / m_x`` in the Truesdell gauge (the sign flips for the material-gauge
      variant), identically zero for NORMAL_ONLY; VELOCITY_SUBSTITUTED does
      not evolve it but diagnostics read it;
    * the density rate of the selected variant;
    * the damping coefficients of ``stepper``.  Automatic mode takes the
      grid maxima of the linearized diffusion coefficients, ``max
      |sigma(psi)| / m_x`` and ``max (1 + psi^2 m_psi/m_x) f''(psi) /
      m_psi`` floored at zero.  Explicit Euler, and ``stepper=None`` as
      diagnostics pass it, give 0.0 for both.

    The density is clamped into the energy's domain once; the count is
    ``clamp_count``.  The surface algebra is that of the
    :mod:`gradflow.geometry` kernels.  The velocity ``v = phi grad psi`` is
    differentiated analytically, ``d_j v_i = phi' psi_i psi_j + phi
    psi_ij``, from the derivatives of ``psi`` at hand, so it costs no
    transform.  Where the clamp acts, ``f''`` of the clamped density does
    not vary with ``psi``, and ``phi'`` has no ``f'''`` term there.
    """
    _require_quadratic(variant, energy)
    grid = state.grid
    m_x, m_psi = mobilities.m_x, mobilities.m_psi
    with np.errstate(**_QUIET):
        cache = build_cache(state.h)
        px, py, pxx, pxy, pyy = (f.values for f in derivatives(state.psi))
        psi = state.psi.values
        clamped, n = energy.clamp(psi)
        f0, f1, fpp, fppp = energy.derivatives(clamped)
        hx, hy = cache.dh.x.values, cache.dh.y.values
        g = cache.g_det.values
        hfrak = cache.hfrak.values

        # Each array is released once nothing reads it (``del``): fewer live
        # full-grid arrays lower the peak RSS and the page faults at 256^2.
        sigma = f0 - clamped * f1
        del f1
        sign = -1.0 if variant is ModelVariant.MATERIAL_GAUGE_QUADRATIC else 1.0
        dth = sign * g * sigma * hfrak / m_x
        r = m_psi / m_x
        amp = 1.0 + psi * psi * r

        a_h = a_psi = 0.0
        if stepper is not None and stepper.scheme is Scheme.IMEX1:
            a_h, a_psi = stepper.stab_h, stepper.stab_psi
            if a_h == 0.0:
                a_h = float(np.max(np.abs(sigma))) / m_x
            if a_psi == 0.0:
                a_psi = max(0.0, float(np.max(amp * fpp))) / m_psi

        if variant is ModelVariant.NORMAL_ONLY:
            v = VectorField2(grid.zeros(), grid.zeros())
        else:
            phi = -sign * psi * fpp / m_x
            v = VectorField2(ScalarField(grid, phi * px), ScalarField(grid, phi * py))

        p_dh = px * hx + py * hy
        grad_sq = covariant_square(px, py, p_dh, g)
        trace = hessian_trace(pxx, pxy, pyy, hx, hy, g)
        if variant is ModelVariant.VELOCITY_SUBSTITUTED:
            rhs = (
                amp * fpp * trace
                + (amp * fppp + 2.0 * psi * r * fpp) * grad_sq
                + (r * (sigma - psi * psi * fpp) - fpp) * p_dh * hfrak
                + g * psi * r * sigma * hfrak * hfrak
            ) / m_psi
        else:
            del sigma, amp
            diffusive = (fpp * (trace - p_dh * hfrak) + fppp * grad_sq) / m_psi
            del trace, grad_sq
            v_flat = dv = None
            if variant is not ModelVariant.NORMAL_ONLY:
                if n:
                    fppp = np.where(clamped == psi, fppp, 0.0)
                dphi = -sign * (fpp + psi * fppp) / m_x
                del fppp
                v_xy = dphi * px * py + phi * pxy
                dv = (dphi * px * px + phi * pxx, v_xy, v_xy, dphi * py * py + phi * pyy)
                del dphi, phi
                v_flat = (v.x.values, v.y.values)
            rhs = truesdell_solve(diffusive, psi, px, py, p_dh, dth, hx, hy, g, hfrak, v_flat, dv)

    return Evaluation(
        state=state,
        mobilities=mobilities,
        cache=cache,
        psi_x=px,
        psi_y=py,
        clamp_count=n,
        f=f0,
        fpp=fpp,
        dth=ScalarField(grid, dth),
        v=v,
        rhs_psi=ScalarField(grid, rhs),
        a_h=a_h,
        a_psi=a_psi,
    )


def stabilization_coefficients(
    state: FlowState,
    variant: ModelVariant,
    mobilities: Mobilities,
    energy: EnergyModel,
    stepper: StepperConfig,
) -> tuple[float, float]:
    """Damping coefficients (a_h, a_psi) actually used for a step (see
    :func:`evaluate`)."""
    ev = evaluate(state, variant, mobilities, energy, stepper)
    return ev.a_h, ev.a_psi


# ---------------------------------------------------------------------------
# Time stepping


def step(
    state: FlowState,
    variant: ModelVariant,
    mobilities: Mobilities,
    energy: EnergyModel,
    stepper: StepperConfig,
    ev: Evaluation | None = None,
) -> FlowState:
    """Advance the state by one time step.

    Both fields are updated from the rates of ``ev``, which must be
    ``evaluate(state, variant, mobilities, energy, stepper)`` and is built
    here when absent.  Each increment ``dt * rhs`` is dealiased and, for
    IMEX1, damped mode by mode by ``1/(1 + dt * a * |k|^2)``: the solution
    of ``(I - dt a lap)(u_new - u_old) = dt * rhs``.  A zero right-hand side
    gives an exactly zero increment.

    Raises
    ------
    SolverAbort
        If the updated fields contain NaN/Inf; the exception carries the
        last valid state.
    """
    if ev is None:
        ev = evaluate(state, variant, mobilities, energy, stepper)
    elif ev.state is not state:
        raise ValueError("the evaluation belongs to another state")

    dt = stepper.dt
    with np.errstate(**_QUIET):
        h_new = state.h.values + dt * dealias_solve(ev.dth, dt * ev.a_h).values
        psi_new = state.psi.values + dt * dealias_solve(ev.rhs_psi, dt * ev.a_psi).values

    if not (np.all(np.isfinite(h_new)) and np.all(np.isfinite(psi_new))):
        raise SolverAbort(
            f"non-finite fields after step {state.step_index + 1} "
            f"(t = {state.t + dt:.6g}); aborting",
            last_valid=state,
        )
    grid = state.grid
    return FlowState(
        t=state.t + dt,
        h=ScalarField(grid, h_new),
        psi=ScalarField(grid, psi_new),
        step_index=state.step_index + 1,
    )
