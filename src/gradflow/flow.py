"""Evolution equations and time stepping for the coupled (h, psi) flow.

The continuous model is the steepest-descent flow of the surface energy
``U = integral f(psi) dS`` in which the surface position moves by L2
descent (mobility ``1/m_x``) and the conserved density by H^-1 descent
(mobility ``1/m_psi``).  In height-observer variables the system reads

* tangential velocity:  ``m_x v = -psi f''(psi) grad psi``,
* height equation:      ``m_x dh/dt = |g| sigma(psi) hfrak``,
* density equation:     Truesdell rate of psi balanced by the surface
  diffusion ``(f'' lap psi + f''' |grad psi|^2) / m_psi``.

Three variants are provided, each assembled once by :func:`evaluate`:

``FULL_COUPLED``
    The complete system above; the density equation is solved for
    ``d psi/dt`` with the transport terms moved to the right-hand side.
    With the height rate substituted it is one scalar equation, which
    ``tests/spectral_reference.py`` keeps as a cross-check.
``NORMAL_ONLY``
    Tangential velocity constrained to zero; only normal motion and
    transport remain.
``MATERIAL_GAUGE_QUADRATIC``
    The quadratic-energy flow derived in the material gauge of surface
    independence: the spatial force terms flip sign relative to the
    Truesdell gauge.  Not a descent direction for U; with ``m_x << m_psi``
    it can raise the energy, which is exactly what the gauge-comparison
    diagnostics exercise.  Requires the Quadratic energy preset.

Spatial derivatives are spectral, except the divergence of the tangential
velocity: with ``v = phi grad psi`` it is ``phi' |grad psi|^2 + phi tr D2
psi`` in the surface metric, formed pointwise from the derivatives of
``psi``.  A step therefore transforms four fields forward and twelve back:
for each of ``h`` and ``psi`` one forward transform and five derivatives,
and for each damped increment one transform pair.  That is 10 transform
calls where one field is transformed at a time (the slopes as a pair, the
second derivatives as a triple), and 16 where :func:`gradflow.spectral._pair`
transforms the two at once (five single inverses each).

A state has one evaluation path: :func:`evaluate` forms every rate of the
state once, and :func:`step` and :func:`gradflow.diagnostics.record` both
read the resulting :class:`Evaluation`.  The evaluation allocates only the
arrays it keeps, and of the velocity it keeps the factor ``phi`` alone; it
forms its intermediates in the grid's five work arrays, so a step's working
set does not grow with the number of terms.  The state holds the two
fields; everything evaluated from it is a plain array.  A step whose fields
are not finite, or whose density leaves the energy's domain, raises
:class:`SolverAbort`.

The two halves of the system are independent within a step, and each
field is transformed in its own arrays.  The derivatives of ``psi`` are
formed beside the geometry of ``h``, and the damped increment of ``psi``
beside that of ``h``, each as a :func:`gradflow.spectral._pair`; a paired
field forms its spectra in arrays that are idle until its transforms end
(see :mod:`gradflow.spectral`).  The pointwise rate algebra is split by
rows with :func:`gradflow.spectral._halves`.  These two alone decide
whether a grid's work runs on two threads, and every grid size makes the
same transforms.  Each element and each one-dimensional FFT line is
computed as it is on one thread, so the output bytes do not depend on the
split.

Time stepping is first-order: plain explicit Euler, or a stabilized
semi-implicit variant (IMEX1) in which the update increment is damped by
``1/(1 + dt * a * |k|^2)`` mode-by-mode.
The damping coefficients are the grid maxima of the linearized diffusion
coefficients of the state, which every evaluation carries; the damping
leaves any zero right-hand side exactly zero, so static states stay frozen
to the bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .energy import EnergyModel, Quadratic, _escape
from .geometry import (
    GeometryCache,
    _finite,
    build_cache,
    covariant_square,
    hessian_trace,
    truesdell_solve,
)
from .spectral import (
    _QUIET,
    Grid,
    ScalarField,
    _dealias_solve,
    _derivative_stack,
    _half_spectra,
    _halves,
    _pair,
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
    "step",
]


class ModelVariant(enum.Enum):
    FULL_COUPLED = "full"
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
    """Time-step size and scheme.  IMEX1 takes its damping coefficients
    from the state at each step (see :func:`evaluate`)."""

    dt: float
    scheme: Scheme = Scheme.IMEX1

    def __post_init__(self) -> None:
        if not (self.dt > 0.0):
            raise ValueError(f"dt must be > 0, got {self.dt}")


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
    """Raised when a step produces non-finite fields, or a density outside
    the energy's domain.

    Carries the last valid state so callers can dump it for post-mortem
    inspection.
    """

    def __init__(self, message: str, last_valid: FlowState):
        super().__init__(message)
        self.last_valid = last_valid


def _require_quadratic(variant: ModelVariant, energy: EnergyModel) -> None:
    if variant is ModelVariant.MATERIAL_GAUGE_QUADRATIC and not isinstance(energy, Quadratic):
        raise ValueError("the material-gauge variant is defined for the Quadratic energy only")


# ---------------------------------------------------------------------------
# Evaluation of one state

@dataclass
class Evaluation:
    """Everything the flow needs from one state, built by :func:`evaluate`.

    :func:`step` and :func:`gradflow.diagnostics.record` both read it, so a
    recorded state is evaluated once.  The rates ``dth`` and ``rhs_psi``
    are ``(nx, ny)`` arrays.  The flat tangential velocity is ``v = phi grad
    psi``, and the evaluation keeps its ``(nx, ny)`` factor ``phi``, which
    is None for NORMAL_ONLY; :meth:`velocity` and :meth:`flux` form ``(2,
    nx, ny)`` stacks.  Besides the rates it keeps what the record reads: the
    energy density ``f`` and its second derivative ``fpp`` at the clamped
    density, the raw flat gradient ``psi_x, psi_y`` of the density, and
    ``clamp_count``, the number of clamped points.  ``a_h``/``a_psi`` are
    the IMEX1 damping coefficients of the state, whatever the scheme;
    :func:`step` applies them only for IMEX1.  ``domain`` is the energy's
    closed interval of densities, which :func:`step` checks.
    """

    state: FlowState
    mobilities: Mobilities
    cache: GeometryCache
    psi_x: np.ndarray
    psi_y: np.ndarray
    clamp_count: int
    f: np.ndarray
    fpp: np.ndarray
    dth: np.ndarray
    phi: np.ndarray | None
    rhs_psi: np.ndarray
    a_h: float
    a_psi: float
    domain: tuple[float, float]

    def velocity(self, out: np.ndarray | None = None) -> np.ndarray:
        """Flat components of the tangential velocity, ``phi grad psi``
        (zero for NORMAL_ONLY), as a ``(2, nx, ny)`` stack written to
        ``out`` (new if absent)."""
        v = np.empty((2,) + self.fpp.shape) if out is None else out
        if self.phi is None:
            v.fill(0.0)
        else:
            np.multiply(self.phi, self.psi_x, out=v[0])
            np.multiply(self.phi, self.psi_y, out=v[1])
        return v

    def flux(self, out: np.ndarray | None = None) -> np.ndarray:
        """Covariant proxy of the conserved-density flux, ``-f'' grad psi /
        m_psi``, as a ``(2, nx, ny)`` stack of flat components, written to
        ``out`` (new if absent)."""
        q = np.empty((2,) + self.fpp.shape) if out is None else out
        factor = np.negative(self.fpp, out=q[0])
        factor /= self.mobilities.m_psi
        np.multiply(self.psi_y, factor, out=q[1])
        np.multiply(self.psi_x, factor, out=q[0])
        return q


def evaluate(
    state: FlowState,
    variant: ModelVariant,
    mobilities: Mobilities,
    energy: EnergyModel,
) -> Evaluation:
    """Evaluate the flow at ``state`` in one pass.

    * height rate ``|g| sigma(psi) hfrak / m_x`` (opposite sign for the
      material-gauge variant);
    * the factor ``phi = -psi f''(psi) / m_x`` of the tangential velocity
      ``v = phi grad psi`` in the Truesdell gauge (the sign flips for the
      material-gauge variant); NORMAL_ONLY has no velocity and no ``phi``;
    * the density rate of the selected variant: the diffusive rate, plus
      the transport by ``v`` and its divergence unless NORMAL_ONLY, solved
      for ``d psi/dt`` by :func:`gradflow.geometry.truesdell_solve`;
    * the IMEX1 damping coefficients of the state: the grid maxima of the
      linearized diffusion coefficients, ``max |sigma(psi)| / m_x`` and
      ``max (1 + psi^2 m_psi/m_x) f''(psi) / m_psi`` floored at zero, or
      ``max f''(psi) / m_psi`` for NORMAL_ONLY, whose density has no
      tangential transport.

    The density is clamped into the energy's domain once; the count is
    ``clamp_count``.  The surface algebra is that of the
    :mod:`gradflow.geometry` kernels.  As ``v = phi grad psi`` has ``d_j v_i
    = phi' psi_i psi_j + phi psi_ij``, its tangential divergence is ``phi'
    |grad psi|^2 + phi tr D2 psi`` in the surface metric, from terms at
    hand.  Where the clamp acts, ``f''`` of the clamped density does
    not vary with ``psi``, and ``phi'`` has no ``f'''`` term there.

    Only the eleven arrays the :class:`Evaluation` keeps are allocated:
    the four of its geometry and a block of seven, whose last row holds
    ``phi`` (the clamped density until then); every intermediate is formed
    with ``out=`` ufuncs in the grid's five work arrays (:meth:`Grid._work`),
    which the next evaluation or step overwrites.

    The derivatives of ``psi`` are transformed beside the geometry, and the
    rate algebra runs on the row halves that :func:`gradflow.spectral._halves`
    gives (see the module docstring).  Where the two run on two threads, the
    block's rows 5-6 (``rhs_psi`` and ``phi``, written only after the pair)
    are the transform scratch of ``psi`` under every variant: a NORMAL_ONLY
    evaluation keeps its seventh row unread, but needs it until then.

    Raises
    ------
    FloatingPointError
        If the heights or the curvature of ``state`` are not finite.  A
        :func:`step` can return such a surface from finite fields: a hand
        loop meets it here, where :func:`gradflow.runner.simulate` ends the
        run as an abort at the state before it.
    """
    _require_quadratic(variant, energy)
    grid = state.grid
    m_x, m_psi = mobilities.m_x, mobilities.m_psi
    sign = -1.0 if variant is ModelVariant.MATERIAL_GAUGE_QUADRATIC else 1.0
    r = m_psi / m_x
    psi = state.psi.values

    # Only the arrays the evaluation keeps are new.  The derivatives of psi
    # land in the first five rows of the (psi_x, psi_y, f, f'', dth, rhs,
    # phi) block; the rate algebra reads the second derivatives, row by row,
    # before it overwrites them.  Beside the geometry, psi's spectrum is the
    # grid's one half spectrum, and each derivative goes to its inverse
    # through the rhs and phi rows, which are written only after the pair.
    kept = np.empty((7,) + psi.shape)
    slopes, second = kept[:2], kept[2:5]
    spec, (row,) = grid._spectral_work()[0], _half_spectra(kept[5:])
    full = variant is not ModelVariant.NORMAL_ONLY
    with np.errstate(**_QUIET):
        cache, _ = _pair(
            grid,
            lambda: build_cache(state.h),
            lambda: _derivative_stack(grid, psi, slopes, second, spec, row),
        )
        # The clamped density is formed in the phi row, which phi overwrites
        # after the clamped density's last use.
        clamped, n = energy.clamp(psi, out=kept[6])

        def rates(s: slice) -> tuple[float, float]:
            """The rate algebra on the rows ``s``, which returns the peaks of
            ``|sigma|`` and of ``amp f''`` there (of ``f''`` for NORMAL_ONLY).
            Each intermediate is formed in the rows ``s`` of one of the
            grid's five work arrays ``w``, or of a kept array before its own
            value is due."""
            w, (px, py) = grid._work()[:, s], slopes[:, s]
            f0, fpp, dth, rhs, phi = kept[2:, s]
            ps, cl, hx, hy = psi[s], clamped[s], cache.hx[s], cache.hy[s]
            g, hfrak = cache.g_det[s], cache.hfrak[s]
            trace = hessian_trace(*second[:, s], hx, hy, g, out=w[0], work=w[1:2])
            p_dh = np.multiply(px, hx, out=w[1])
            p_dh += np.multiply(py, hy, out=w[2])
            grad_sq = covariant_square(px, py, p_dh, g, out=w[2], work=w[4:])

            # f' is formed in dth, where it becomes sigma = f - psi f' and then
            # the height rate.
            _, sigma, _, fppp = energy.derivatives(cl, out=(f0, dth, fpp, w[3]), work=w[4:])
            sigma *= cl
            np.subtract(f0, sigma, out=sigma)
            peak_sigma = float(np.abs(sigma, out=w[4]).max())
            if full:
                amp = np.multiply(ps, ps, out=w[4])
                amp *= r
                amp += 1.0
                peak_fpp = float(np.multiply(amp, fpp, out=rhs).max())
            else:
                peak_fpp = float(fpp.max())

            np.multiply(g, sigma, out=dth)
            dth *= hfrak
            dth *= sign / m_x

            # The diffusive rate (f'' (trace - p_dh hfrak) + f''' grad_sq) / m_psi.
            np.multiply(fppp, grad_sq, out=rhs)
            t = np.multiply(p_dh, hfrak, out=w[4])
            np.subtract(trace, t, out=t)
            np.multiply(fpp, t, out=t)
            np.add(t, rhs, out=rhs)
            rhs /= m_psi
            div_t = None
            if full:
                # div_t = (f'' + psi f''') (-sign/m_x) grad_sq + phi trace
                if n:
                    np.copyto(fppp, 0.0, where=cl != ps)
                np.multiply(ps, fpp, out=phi)
                phi *= -sign / m_x
                div_t = np.multiply(ps, fppp, out=fppp)
                np.add(fpp, div_t, out=div_t)
                div_t *= -sign / m_x
                div_t = np.multiply(div_t, grad_sq, out=grad_sq)
                div_t += np.multiply(phi, trace, out=trace)
            truesdell_solve(
                rhs, ps, px, py, p_dh, dth, hx, hy, g, hfrak, phi if full else None, div_t,
                out=rhs, work=(w[0], w[3], w[4], div_t),
            )
            return peak_sigma, peak_fpp

        # A NaN-propagating maximum over the halves, as the peaks of the
        # whole grid are.
        peak_sigma, peak_fpp = np.max(_halves(grid, grid.nx, rates), axis=0)

    return Evaluation(
        state=state,
        mobilities=mobilities,
        cache=cache,
        psi_x=slopes[0],
        psi_y=slopes[1],
        clamp_count=n,
        f=kept[2],
        fpp=kept[3],
        dth=kept[4],
        phi=kept[6] if full else None,
        rhs_psi=kept[5],
        a_h=float(peak_sigma) / m_x,
        a_psi=max(0.0, float(peak_fpp)) / m_psi,
        domain=energy.domain,
    )


def _damping(ev: Evaluation, stepper: StepperConfig) -> tuple[float, float]:
    # Selected rather than multiplied by 0, since 0 * inf is NaN where the
    # rates overflow.
    if stepper.scheme is Scheme.IMEX1:
        return ev.a_h, ev.a_psi
    return 0.0, 0.0


# Not exported; kept because perfbench/spans.py binds this name (as it does
# FloryHuggins.density) to time the stabilization.
def stabilization_coefficients(
    state: FlowState,
    variant: ModelVariant,
    mobilities: Mobilities,
    energy: EnergyModel,
    stepper: StepperConfig,
) -> tuple[float, float]:
    """Damping coefficients (a_h, a_psi) that :func:`step` applies from
    ``state``: those of its evaluation for IMEX1, zero for explicit Euler."""
    return _damping(evaluate(state, variant, mobilities, energy), stepper)


# ---------------------------------------------------------------------------
# Time stepping


def step(ev: Evaluation, stepper: StepperConfig) -> FlowState:
    """Advance ``ev.state`` by one time step of ``stepper``.

    The two rates of ``ev`` are solved in one transform pair each, as a
    :func:`gradflow.spectral._pair`.  Each increment ``dt * rhs`` is
    dealiased and, for IMEX1, damped mode by mode by ``1/(1 + dt * a *
    |k|^2)`` with ``a`` = ``ev.a_h`` or ``ev.a_psi``: the solution of ``(I -
    dt a lap)(u_new - u_old) = dt * rhs``.  Explicit Euler applies no
    damping.  A zero right-hand side gives a zero increment.

    Raises
    ------
    SolverAbort
        If the updated fields contain NaN/Inf, or the updated density leaves
        ``ev.domain``; the exception carries the last valid state.
    """
    state = ev.state
    grid = state.grid
    dt = stepper.dt
    a_h, a_psi = (dt * a for a in _damping(ev, stepper))
    # The two solves work in the grid's work rows, which the evaluation no
    # longer uses: their spectra in rows 0-2, their solutions in rows 3-4.
    # So the step allocates nothing until the solves end, and then only the
    # new fields.
    work = grid._work()
    spectra, inc = _half_spectra(work[:3], 2), work[3:]
    with np.errstate(**_QUIET):
        _pair(
            grid,
            lambda: _dealias_solve(grid, ev.dth, a_h, inc[0], spectra[0]),
            lambda: _dealias_solve(grid, ev.rhs_psi, a_psi, inc[1], spectra[1]),
        )
        inc *= dt
        h_new, psi_new = state.h.values + inc[0], state.psi.values + inc[1]
        psi_extremes = psi_new.min(), psi_new.max()

    if not (_finite(h_new) and np.isfinite(psi_extremes).all()):
        fault = "non-finite fields"
    else:
        fault = _escape(psi_new, ev.domain, psi_extremes)
    if fault:
        raise SolverAbort(
            f"{fault} after step {state.step_index + 1} (t = {state.t + dt:.6g}); aborting",
            last_valid=state,
        )
    return FlowState(
        t=state.t + dt,
        h=ScalarField(grid, h_new),
        psi=ScalarField(grid, psi_new),
        step_index=state.step_index + 1,
    )
