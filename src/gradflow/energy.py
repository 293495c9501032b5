"""Energy densities f(psi), their derivatives, and derived surface tension.

The total surface energy is ``U = integral of f(psi) over the surface``;
:func:`gradflow.diagnostics.record` integrates the density that
:func:`gradflow.flow.evaluate` forms.

Four presets are provided; each knows its derivatives up to third order in
closed form, so the flow assembly never needs numerical differentiation:

* ``Constant(c)``   -- ``f = c``: pure surface-area energy.
* ``Linear(c)``     -- ``f = c * psi``: zero surface tension, static flow.
* ``Quadratic(c)``  -- ``f = (c/2) * psi**2``.
* ``FloryHuggins(sigma0, beta, chi)`` -- logarithmic mixing-entropy density
  ``sigma0 + beta*(psi ln psi + (1-psi) ln(1-psi)) + chi psi (1-psi)``,
  defined for ``psi`` in (0, 1); for ``chi > 2 beta`` it is a double well.

The surface tension is the Legendre-type combination
``sigma = f - psi * f'``; it drives the normal motion of the surface while
``psi * f'' * grad psi`` drives the tangential motion.

Each model has one closed ``domain``, ``[0, 1]`` for FloryHuggins and all
reals otherwise; a density outside it is refused as initial data, and a
step that leaves it aborts (:func:`gradflow.flow.step`).  FloryHuggins
densities within ``eps = 1e-10`` of its ends are clamped to ``[eps,
1-eps]``, and never silently: :meth:`EnergyModel.clamp` returns the number
of affected grid points with the clamped values.

Both write to caller-supplied arrays when given them, so that the flow
evaluation forms them in the grid's work arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CLAMP_EPS",
    "EnergyModel",
    "Constant",
    "Linear",
    "Quadratic",
    "FloryHuggins",
]

CLAMP_EPS = 1e-10


def _escape(
    psi: np.ndarray, domain: tuple[float, float], extremes: tuple | None = None
) -> str | None:
    """``density <value> outside [lo, hi] at grid index (i, j)`` for the extreme
    value of ``psi`` outside the closed ``domain``; None if there is none.
    ``extremes`` is ``(psi.min(), psi.max())``, formed here when absent."""
    lo, hi = domain
    low, high = (psi.min(), psi.max()) if extremes is None else extremes
    if lo <= low and high <= hi:
        return None
    at = psi.argmin() if low < lo else psi.argmax()
    index = tuple(int(k) for k in np.unravel_index(at, psi.shape))
    return f"density {float(psi.flat[at])} outside [{lo:g}, {hi:g}] at grid index {index}"


def _outputs(psi, out) -> tuple[np.ndarray, ...]:
    """The four arrays of ``out``, new when it is absent."""
    return tuple(np.empty((4,) + np.shape(psi)) if out is None else out)


class EnergyModel:
    """Base class for energy-density presets.

    Subclasses implement :meth:`derivatives` in closed form on arrays that
    are already inside the model's domain.  Models are immutable values.
    """

    # The closed interval (lo, hi) of valid densities.
    domain = (-math.inf, math.inf)

    def derivatives(self, psi: np.ndarray, out=None, work=None) -> tuple[np.ndarray, ...]:
        """``(f, f', f'', f''')`` at in-domain values, written to the four
        arrays of ``out`` (new when absent), none of which may be ``psi``.
        FloryHuggins uses one array of ``work``."""
        raise NotImplementedError

    def density(self, psi: np.ndarray, order: int) -> np.ndarray:
        """``f`` (order 0) or its derivative of order 1..3 at in-domain values.

        No run calls it; kept because ``perfbench/spans.py`` binds it."""
        if not (0 <= order <= 3):
            raise ValueError(f"derivative order must be in 0..3, got {order}")
        return self.derivatives(psi)[order]

    def clamp(self, psi: np.ndarray, out=None) -> tuple[np.ndarray, int]:
        """Return (domain-valid values, number of clamped points); the values
        are ``psi`` itself where nothing is clamped, else written to ``out``
        (new when absent)."""
        return psi, 0


@dataclass(frozen=True)
class Constant(EnergyModel):
    """f = c with c > 0; the energy is proportional to surface area."""

    c: float = 1.0

    def __post_init__(self) -> None:
        if not (self.c > 0.0):
            raise ValueError(f"Constant energy requires c > 0, got {self.c}")

    def derivatives(self, psi: np.ndarray, out=None, work=None) -> tuple[np.ndarray, ...]:
        f, f1, f2, f3 = _outputs(psi, out)
        f.fill(self.c)
        for a in (f1, f2, f3):
            a.fill(0.0)
        return f, f1, f2, f3


@dataclass(frozen=True)
class Linear(EnergyModel):
    """f = c * psi; surface tension vanishes identically."""

    c: float = 1.0

    def derivatives(self, psi: np.ndarray, out=None, work=None) -> tuple[np.ndarray, ...]:
        f, f1, f2, f3 = _outputs(psi, out)
        np.multiply(self.c, psi, out=f)
        f1.fill(self.c)
        f2.fill(0.0)
        f3.fill(0.0)
        return f, f1, f2, f3


@dataclass(frozen=True)
class Quadratic(EnergyModel):
    """f = (c/2) * psi**2 with c > 0."""

    c: float = 1.0

    def __post_init__(self) -> None:
        if not (self.c > 0.0):
            raise ValueError(f"Quadratic energy requires c > 0, got {self.c}")

    def derivatives(self, psi: np.ndarray, out=None, work=None) -> tuple[np.ndarray, ...]:
        f, f1, f2, f3 = _outputs(psi, out)
        np.multiply(0.5 * self.c, psi, out=f)
        f *= psi
        np.multiply(self.c, psi, out=f1)
        f2.fill(self.c)
        f3.fill(0.0)
        return f, f1, f2, f3


@dataclass(frozen=True)
class FloryHuggins(EnergyModel):
    """Mixing-entropy density on psi in (0, 1).

    ``sigma0 > 0`` shifts the energy (it is the clean-surface tension),
    ``beta > 0`` scales the entropy, and ``chi`` is the interaction
    parameter; with ``chi = 0`` the derived tension is the Langmuir
    equation of state ``sigma0 + beta ln(1 - psi)``.

    The domain is closed, but the logarithms are evaluated at a density
    clamped into ``[CLAMP_EPS, 1 - CLAMP_EPS]``, where ``f''`` is about
    ``beta / CLAMP_EPS``.  A start density that touches 0 or 1 is accepted,
    but that stiffness can end the run at its first step: on 16^2 under
    imex1 at dt = 1e-3, a density equal to 0 and 1 at grid points leaves
    the domain in one step and the run aborts.  Start densities should lie
    in ``(CLAMP_EPS, 1 - CLAMP_EPS)``.
    """

    sigma0: float = 1.0
    beta: float = 0.75
    chi: float = 0.0

    def __post_init__(self) -> None:
        if not (self.sigma0 > 0.0):
            raise ValueError(f"FloryHuggins requires sigma0 > 0, got {self.sigma0}")
        if not (self.beta > 0.0):
            raise ValueError(f"FloryHuggins requires beta > 0, got {self.beta}")

    domain = (0.0, 1.0)

    def clamp(self, psi: np.ndarray, out=None) -> tuple[np.ndarray, int]:
        n = self.count_violations(psi)
        if n:
            return np.clip(psi, CLAMP_EPS, 1.0 - CLAMP_EPS, out=out), n
        return psi, 0

    def count_violations(self, psi: np.ndarray) -> int:
        # Two reductions settle the usual case, a density inside the band,
        # without a full-grid mask; a NaN fails them and is not counted.
        if CLAMP_EPS <= psi.min() and psi.max() <= 1.0 - CLAMP_EPS:
            return 0
        return int(np.count_nonzero((psi < CLAMP_EPS) | (psi > 1.0 - CLAMP_EPS)))

    density = EnergyModel.density  # own entry: perfbench/spans.py traces this name

    def derivatives(self, psi: np.ndarray, out=None, work=None) -> tuple[np.ndarray, ...]:
        # Each logarithm is evaluated once for f and f', and p q once for all;
        # the outputs hold q and the logarithms until their own turn.
        f, f1, f2, f3 = _outputs(psi, out)
        pq = np.empty_like(psi) if work is None else work[0]
        p = psi
        q = np.subtract(1.0, p, out=f3)
        log_p = np.log(p, out=f1)
        log_q = np.log(q, out=f2)
        np.multiply(p, q, out=pq)
        # f = sigma0 + beta (p log p + q log q) + chi p q
        np.multiply(p, log_p, out=f)
        q *= log_q
        f += q
        f *= self.beta
        f += self.sigma0
        f += np.multiply(self.chi, pq, out=f3)
        # f' = beta (log p - log q) + chi (1 - 2 p)
        log_p -= log_q
        f1 *= self.beta
        np.multiply(2.0, p, out=f2)
        np.subtract(1.0, f2, out=f2)
        f2 *= self.chi
        f1 += f2
        # f''' = beta (2 p - 1) / (p q)^2
        np.multiply(2.0, p, out=f3)
        f3 -= 1.0
        f3 *= self.beta
        f3 /= np.multiply(pq, pq, out=f2)
        # f'' = beta / (p q) - 2 chi
        np.divide(self.beta, pq, out=f2)
        f2 -= 2.0 * self.chi
        return f, f1, f2, f3
