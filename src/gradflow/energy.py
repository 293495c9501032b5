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

Out-of-domain FloryHuggins arguments are clamped to ``[eps, 1-eps]`` with
``eps = 1e-10``; clamping is never silent -- :meth:`EnergyModel.clamp`
returns the number of affected grid points with the clamped values.

Both write to caller-supplied arrays when given them, so that the flow
evaluation forms them in the grid's work arrays.
"""

from __future__ import annotations

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


def _outputs(psi, out) -> tuple[np.ndarray, ...]:
    """The four arrays of ``out``, new when it is absent."""
    return tuple(np.empty((4,) + np.shape(psi)) if out is None else out)


class EnergyModel:
    """Base class for energy-density presets.

    Subclasses implement :meth:`derivatives` in closed form on arrays that
    are already inside the model's domain.  Models are immutable values.
    """

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
    """

    sigma0: float = 1.0
    beta: float = 0.75
    chi: float = 0.0

    def __post_init__(self) -> None:
        if not (self.sigma0 > 0.0):
            raise ValueError(f"FloryHuggins requires sigma0 > 0, got {self.sigma0}")
        if not (self.beta > 0.0):
            raise ValueError(f"FloryHuggins requires beta > 0, got {self.beta}")

    def clamp(self, psi: np.ndarray, out=None) -> tuple[np.ndarray, int]:
        n = self.count_violations(psi)
        if n:
            return np.clip(psi, CLAMP_EPS, 1.0 - CLAMP_EPS, out=out), n
        return psi, 0

    def count_violations(self, psi: np.ndarray) -> int:
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
