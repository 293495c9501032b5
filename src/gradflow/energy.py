"""Energy densities f(psi), their derivatives, and derived surface tension.

The total surface energy is ``U = integral of f(psi) over the surface``.
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

Out-of-domain FloryHuggins arguments are clamped to ``[eps, 1-eps]`` with
``eps = 1e-10``; clamping is never silent -- each affected grid point can be
counted through a :class:`ClampTally` passed by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryCache, surface_integral
from .spectral import ScalarField, VectorField2, gradient

__all__ = [
    "CLAMP_EPS",
    "ClampTally",
    "EnergyModel",
    "Constant",
    "Linear",
    "Quadratic",
    "FloryHuggins",
    "eval_f",
    "eval_sigma",
    "total_energy",
    "functional_derivatives",
]

CLAMP_EPS = 1e-10


@dataclass
class ClampTally:
    """Mutable counter of domain-clamp events (grid points, cumulative)."""

    count: int = 0

    def add(self, n: int) -> None:
        self.count += int(n)


class EnergyModel:
    """Base class for energy-density presets.

    Subclasses implement :meth:`density` for orders 0..3 on arrays that are
    already inside the model's domain.  Models are immutable values.
    """

    def density(self, psi: np.ndarray, order: int) -> np.ndarray:
        raise NotImplementedError

    def derivatives(self, psi: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(f, f', f'', f''')`` at in-domain values, as :meth:`density` gives them."""
        return tuple(self.density(psi, order) for order in range(4))

    def clamp(self, psi: np.ndarray) -> tuple[np.ndarray, int]:
        """Return (domain-valid values, number of clamped points)."""
        return psi, 0

    def count_violations(self, psi: np.ndarray) -> int:
        return 0


def _check_order(order: int, top: int) -> None:
    if not (0 <= order <= top):
        raise ValueError(f"derivative order must be in 0..{top}, got {order}")


@dataclass(frozen=True)
class Constant(EnergyModel):
    """f = c with c > 0; the energy is proportional to surface area."""

    c: float = 1.0

    def __post_init__(self) -> None:
        if not (self.c > 0.0):
            raise ValueError(f"Constant energy requires c > 0, got {self.c}")

    def density(self, psi: np.ndarray, order: int) -> np.ndarray:
        _check_order(order, 3)
        if order == 0:
            return np.full_like(psi, self.c)
        return np.zeros_like(psi)


@dataclass(frozen=True)
class Linear(EnergyModel):
    """f = c * psi; surface tension vanishes identically."""

    c: float = 1.0

    def density(self, psi: np.ndarray, order: int) -> np.ndarray:
        _check_order(order, 3)
        if order == 0:
            return self.c * psi
        if order == 1:
            return np.full_like(psi, self.c)
        return np.zeros_like(psi)


@dataclass(frozen=True)
class Quadratic(EnergyModel):
    """f = (c/2) * psi**2 with c > 0."""

    c: float = 1.0

    def __post_init__(self) -> None:
        if not (self.c > 0.0):
            raise ValueError(f"Quadratic energy requires c > 0, got {self.c}")

    def density(self, psi: np.ndarray, order: int) -> np.ndarray:
        _check_order(order, 3)
        if order == 0:
            return 0.5 * self.c * psi * psi
        if order == 1:
            return self.c * psi
        if order == 2:
            return np.full_like(psi, self.c)
        return np.zeros_like(psi)


@dataclass(frozen=True)
class FloryHuggins(EnergyModel):
    """Mixing-entropy density on psi in (0, 1).

    ``sigma0 > 0`` shifts the energy (it is the clean-surface tension),
    ``beta > 0`` scales the entropy, and ``chi`` is the interaction
    parameter; with ``chi = 0`` the derived tension is the Langmuir
    equation of state ``sigma0 + beta ln(1 - psi)``.
    """

    sigma0: float = 1.0
    beta: float = 0.75
    chi: float = 0.0

    def __post_init__(self) -> None:
        if not (self.sigma0 > 0.0):
            raise ValueError(f"FloryHuggins requires sigma0 > 0, got {self.sigma0}")
        if not (self.beta > 0.0):
            raise ValueError(f"FloryHuggins requires beta > 0, got {self.beta}")

    def clamp(self, psi: np.ndarray) -> tuple[np.ndarray, int]:
        n = self.count_violations(psi)
        if n:
            return np.clip(psi, CLAMP_EPS, 1.0 - CLAMP_EPS), n
        return psi, 0

    def count_violations(self, psi: np.ndarray) -> int:
        return int(np.count_nonzero((psi < CLAMP_EPS) | (psi > 1.0 - CLAMP_EPS)))

    def density(self, psi: np.ndarray, order: int) -> np.ndarray:
        _check_order(order, 3)
        return self.derivatives(psi)[order]

    def derivatives(self, psi: np.ndarray) -> tuple[np.ndarray, ...]:
        # Each logarithm is evaluated once for f and f'.
        p = psi
        q = 1.0 - p
        log_p, log_q = np.log(p), np.log(q)
        return (
            self.sigma0 + self.beta * (p * log_p + q * log_q) + self.chi * p * q,
            self.beta * (log_p - log_q) + self.chi * (1.0 - 2.0 * p),
            self.beta / (p * q) - 2.0 * self.chi,
            self.beta * (2.0 * p - 1.0) / (p * p * q * q),
        )


def eval_f(
    model: EnergyModel, psi: ScalarField, order: int, tally: ClampTally | None = None
) -> ScalarField:
    """Pointwise f, f', f'' or f''' of the preset at the field's values.

    Out-of-domain values are clamped first; if ``tally`` is given the number
    of clamped points is added to it.
    """
    values, n = model.clamp(psi.values)
    if tally is not None and n:
        tally.add(n)
    return ScalarField(psi.grid, model.density(values, order))


def eval_sigma(
    model: EnergyModel, psi: ScalarField, order: int, tally: ClampTally | None = None
) -> ScalarField:
    """Surface tension sigma = f - psi f' and its first two derivatives."""
    _check_order(order, 2)
    values, n = model.clamp(psi.values)
    if tally is not None and n:
        tally.add(n)
    if order == 0:
        out = model.density(values, 0) - values * model.density(values, 1)
    elif order == 1:
        out = -values * model.density(values, 2)
    else:
        out = -(model.density(values, 2) + values * model.density(values, 3))
    return ScalarField(psi.grid, out)


def total_energy(
    model: EnergyModel,
    psi: ScalarField,
    cache: GeometryCache,
    tally: ClampTally | None = None,
) -> float:
    """Total surface energy: integral of f(psi) with the area weight."""
    return surface_integral(eval_f(model, psi, 0, tally), cache)


def functional_derivatives(
    model: EnergyModel,
    psi: ScalarField,
    cache: GeometryCache,
    tally: ClampTally | None = None,
) -> tuple[ScalarField, VectorField2, ScalarField]:
    """Variations of the energy in (psi, surface) directions.

    Returns
    -------
    dpsi : ScalarField
        Variation against psi on fixed geometry, ``f'(psi)``.
    tangential : VectorField2
        Covariant proxy of the tangential surface variation,
        ``psi f''(psi) grad psi``.
    normal : ScalarField
        Normal surface variation, ``-sigma(psi) * H``.
    """
    fp = eval_f(model, psi, 1, tally)
    fpp = eval_f(model, psi, 2)
    sigma = eval_sigma(model, psi, 0)
    px, py = gradient(psi)
    factor = psi * fpp
    tangential = VectorField2(factor * px, factor * py)
    normal = ScalarField(psi.grid, -sigma.values * cache.mean_curv.values)
    return fp, tangential, normal
