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
``eps = 1e-10``; clamping is never silent -- :meth:`EnergyModel.clamp`
returns the number of affected grid points with the clamped values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryCache, surface_integral
from .spectral import ScalarField

__all__ = [
    "CLAMP_EPS",
    "EnergyModel",
    "Constant",
    "Linear",
    "Quadratic",
    "FloryHuggins",
    "total_energy",
]

CLAMP_EPS = 1e-10


class EnergyModel:
    """Base class for energy-density presets.

    Subclasses implement :meth:`derivatives` in closed form on arrays that
    are already inside the model's domain.  Models are immutable values.
    """

    def derivatives(self, psi: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(f, f', f'', f''')`` at in-domain values."""
        raise NotImplementedError

    def density(self, psi: np.ndarray, order: int) -> np.ndarray:
        """``f`` (order 0) or its derivative of order 1..3 at in-domain values."""
        if not (0 <= order <= 3):
            raise ValueError(f"derivative order must be in 0..3, got {order}")
        return self.derivatives(psi)[order]

    def clamp(self, psi: np.ndarray) -> tuple[np.ndarray, int]:
        """Return (domain-valid values, number of clamped points)."""
        return psi, 0

    def count_violations(self, psi: np.ndarray) -> int:
        return 0


@dataclass(frozen=True)
class Constant(EnergyModel):
    """f = c with c > 0; the energy is proportional to surface area."""

    c: float = 1.0

    def __post_init__(self) -> None:
        if not (self.c > 0.0):
            raise ValueError(f"Constant energy requires c > 0, got {self.c}")

    def derivatives(self, psi: np.ndarray) -> tuple[np.ndarray, ...]:
        return (
            np.full_like(psi, self.c),
            np.zeros_like(psi),
            np.zeros_like(psi),
            np.zeros_like(psi),
        )


@dataclass(frozen=True)
class Linear(EnergyModel):
    """f = c * psi; surface tension vanishes identically."""

    c: float = 1.0

    def derivatives(self, psi: np.ndarray) -> tuple[np.ndarray, ...]:
        return (
            self.c * psi,
            np.full_like(psi, self.c),
            np.zeros_like(psi),
            np.zeros_like(psi),
        )


@dataclass(frozen=True)
class Quadratic(EnergyModel):
    """f = (c/2) * psi**2 with c > 0."""

    c: float = 1.0

    def __post_init__(self) -> None:
        if not (self.c > 0.0):
            raise ValueError(f"Quadratic energy requires c > 0, got {self.c}")

    def derivatives(self, psi: np.ndarray) -> tuple[np.ndarray, ...]:
        return (
            0.5 * self.c * psi * psi,
            self.c * psi,
            np.full_like(psi, self.c),
            np.zeros_like(psi),
        )


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

    density = EnergyModel.density  # own entry: perfbench/spans.py traces this name

    def derivatives(self, psi: np.ndarray) -> tuple[np.ndarray, ...]:
        # Each logarithm is evaluated once for f and f', and p q once for all.
        p = psi
        q = 1.0 - p
        log_p, log_q, pq = np.log(p), np.log(q), p * q
        return (
            self.sigma0 + self.beta * (p * log_p + q * log_q) + self.chi * pq,
            self.beta * (log_p - log_q) + self.chi * (1.0 - 2.0 * p),
            self.beta / pq - 2.0 * self.chi,
            self.beta * (2.0 * p - 1.0) / (pq * pq),
        )


def total_energy(model: EnergyModel, psi: ScalarField, cache: GeometryCache) -> float:
    """Total surface energy: integral of f(psi) with the area weight, taken
    at the clamped density."""
    values, _ = model.clamp(psi.values)
    return surface_integral(ScalarField(psi.grid, model.derivatives(values)[0]), cache)
