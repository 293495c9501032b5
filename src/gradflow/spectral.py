"""Fourier pseudospectral toolbox on periodic rectangles.

Fields live on a uniform ``nx x ny`` grid covering ``[0, lx) x [0, ly)``,
stored row-major with axis 0 along x and axis 1 along y.  All derivative
operators act in spectral space through real FFTs; nonlinear terms are
expected to be formed pointwise by the caller and (optionally) dealiased
with the 2/3 rule afterwards.

Conventions
-----------
* Forward transforms are unnormalized; inverse transforms divide by
  ``nx * ny`` (the numpy default).
* The Nyquist mode is zeroed in first-derivative multipliers, which keeps
  odd-order derivatives of real fields real and unambiguous.  Even grid
  sizes are required for the same reason.
* The 2/3-rule mask of :func:`dealias_solve` acts per axis: mode ``m``
  survives iff ``|m| <= (2/3) * (n/2)``, equality included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField2",
    "gradient",
    "derivatives",
    "integrate",
    "dealias_solve",
    "get_fft_workers",
]


def get_fft_workers() -> int:
    """The number of FFT threads: always 1, numpy's FFT is single-threaded.

    Kept because ``perfbench/worker.py`` imports it to record the setting.
    """
    return 1


# Both transforms run as two one-dimensional passes of ``numpy.fft``, the
# complex one in place.  The forward pair gives the bytes of a 2-D real FFT
# (``scipy.fft.rfft2``); the inverse pair does too when ``nx`` is a power of
# two, and otherwise differs by rounding (each pass scales by its own 1/n).


def _rfft2(values: np.ndarray) -> np.ndarray:
    spec = np.fft.rfft(values, axis=-1)
    return np.fft.fft(spec, axis=-2, out=spec)


def _irfft2(spec: np.ndarray, ny: int) -> np.ndarray:
    """Inverse of :func:`_rfft2`; overwrites ``spec``, which every caller
    builds itself."""
    np.fft.ifft(spec, axis=-2, out=spec)
    return np.fft.irfft(spec, n=ny, axis=-1)


def _derivative_stack(f: "ScalarField", multipliers: np.ndarray) -> np.ndarray:
    """Inverse transforms of ``multipliers * rfft2(f)``, one per multiplier.

    The products are written into the grid's work buffer instead of a new
    spectral stack per call.  The returned stack is a new array; the buffer
    is scratch.
    """
    g = f.grid
    work = g._spectral_work()[: len(multipliers)]
    np.multiply(multipliers, _rfft2(f.values), out=work)
    return _irfft2(work, g.ny)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with precomputed spectral operators.

    Parameters
    ----------
    nx, ny : int
        Number of points per axis; must be even and at least 8.
    lx, ly : float
        Domain extents; default ``2 * pi`` each.
    dealias : bool
        Whether the 2/3-rule mask is active.  When False the mask keeps
        every mode.

    The grid also owns a complex work buffer for the derivative helpers,
    allocated on first use; a grid is therefore not for concurrent use from
    several threads.
    """

    nx: int
    ny: int
    lx: float = 2.0 * np.pi
    ly: float = 2.0 * np.pi
    dealias: bool = True

    def __post_init__(self) -> None:
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if n % 2 != 0 or n < 8:
                raise ValueError(f"{name} must be even and >= 8, got {n}")
        for name, l in (("lx", self.lx), ("ly", self.ly)):
            if not (l > 0.0):
                raise ValueError(f"{name} must be positive, got {l}")

        set_attr = object.__setattr__
        # Collocation coordinates, broadcastable to (nx, ny).
        set_attr(self, "x", (np.arange(self.nx) * (self.lx / self.nx)).reshape(-1, 1))
        set_attr(self, "y", (np.arange(self.ny) * (self.ly / self.ny)).reshape(1, -1))

        # Integer mode numbers in FFT storage order; y-axis uses the real
        # transform's half spectrum.
        mx = np.fft.fftfreq(self.nx, 1.0 / self.nx).reshape(-1, 1)
        my = np.arange(self.ny // 2 + 1, dtype=float).reshape(1, -1)

        # First-derivative multipliers with the Nyquist mode removed.
        kx = (2.0 * np.pi / self.lx) * mx
        ky = (2.0 * np.pi / self.ly) * my
        kx_d = kx.copy()
        kx_d[self.nx // 2, 0] = 0.0
        ky_d = ky.copy()
        ky_d[0, -1] = 0.0
        set_attr(self, "kx", kx_d)
        set_attr(self, "ky", ky_d)

        # Full |k|^2 (Nyquist included) for Helmholtz-type solves.
        set_attr(self, "k2", kx * kx + ky * ky)

        cut_x = (2.0 / 3.0) * (self.nx / 2.0) * (1.0 + 1e-12)
        cut_y = (2.0 / 3.0) * (self.ny / 2.0) * (1.0 + 1e-12)
        if self.dealias:
            mask = (np.abs(mx) <= cut_x) & (np.abs(my) <= cut_y)
        else:
            mask = np.ones((self.nx, self.ny // 2 + 1), dtype=bool)
        set_attr(self, "dealias_mask", mask)

        # Precomputed multiplier stack for the batched derivative helpers,
        # (d/dx, d/dy, dxx, dxy, dyy); the gradient uses its first two.
        one = np.ones((self.nx, self.ny // 2 + 1))
        set_attr(
            self,
            "deriv_multipliers",
            np.stack(
                (
                    1j * kx_d * one,
                    1j * ky_d * one,
                    -kx_d * kx_d * one,
                    -kx_d * ky_d * one,
                    -ky_d * ky_d * one,
                )
            ),
        )

    def _spectral_work(self) -> np.ndarray:
        """Complex scratch of the shape of ``deriv_multipliers``."""
        work = self.__dict__.get("_work")
        if work is None:
            work = np.empty_like(self.deriv_multipliers)
            object.__setattr__(self, "_work", work)
        return work

    # -- field constructors -------------------------------------------------

    def field(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self, np.asarray(values, dtype=float))

    def constant(self, value: float) -> "ScalarField":
        return ScalarField(self, np.full((self.nx, self.ny), float(value)))

    def zeros(self) -> "ScalarField":
        return ScalarField(self, np.zeros((self.nx, self.ny)))

    def from_function(self, fn) -> "ScalarField":
        """Evaluate ``fn(x, y)`` on the collocation points."""
        x, y = np.broadcast_arrays(self.x, self.y)
        return ScalarField(self, np.asarray(fn(x, y), dtype=float))

    @property
    def cell_area(self) -> float:
        return (self.lx * self.ly) / (self.nx * self.ny)

    def compatible(self, other: "Grid") -> bool:
        return (
            self.nx == other.nx
            and self.ny == other.ny
            and self.lx == other.lx
            and self.ly == other.ly
        )


def _check_same_grid(a: "ScalarField", b: "ScalarField") -> None:
    if a.grid is not b.grid and not a.grid.compatible(b.grid):
        raise ValueError("fields live on incompatible grids")


@dataclass
class ScalarField:
    """Real scalar samples on a :class:`Grid`.

    Supports elementwise arithmetic with other fields and with Python
    scalars; all operations return new fields on the same grid.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.nx, self.grid.ny)
        if self.values.shape != expected:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {expected}"
            )

    def check_finite(self, label: str = "field") -> "ScalarField":
        if not np.all(np.isfinite(self.values)):
            bad = int(np.size(self.values) - np.count_nonzero(np.isfinite(self.values)))
            raise FloatingPointError(f"{label} contains {bad} non-finite values")
        return self

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, ScalarField):
            _check_same_grid(self, other)
            return other.values
        return np.asarray(other, dtype=float)

    def __add__(self, other) -> "ScalarField":
        return ScalarField(self.grid, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "ScalarField":
        return ScalarField(self.grid, self.values - self._coerce(other))

    def __rsub__(self, other) -> "ScalarField":
        return ScalarField(self.grid, self._coerce(other) - self.values)

    def __mul__(self, other) -> "ScalarField":
        return ScalarField(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ScalarField":
        return ScalarField(self.grid, self.values / self._coerce(other))

    def __rtruediv__(self, other) -> "ScalarField":
        return ScalarField(self.grid, self._coerce(other) / self.values)

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.values)

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


@dataclass
class VectorField2:
    """Pair of scalar fields holding the flat components of a surface vector."""

    x: ScalarField
    y: ScalarField

    def __post_init__(self) -> None:
        _check_same_grid(self.x, self.y)

    @property
    def grid(self) -> Grid:
        return self.x.grid

    def __iter__(self) -> Iterator[ScalarField]:
        return iter((self.x, self.y))

    def dot(self, other: "VectorField2") -> ScalarField:
        return self.x * other.x + self.y * other.y


# -- spectral operators -----------------------------------------------------


def gradient(f: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Both first derivatives ``(f_x, f_y)`` from a single forward transform."""
    g = f.grid
    out = _derivative_stack(f, g.deriv_multipliers[:2])
    return ScalarField(g, out[0]), ScalarField(g, out[1])


def derivatives(
    f: ScalarField,
) -> tuple[ScalarField, ScalarField, ScalarField, ScalarField, ScalarField]:
    """All derivatives up to second order, ``(f_x, f_y, f_xx, f_xy, f_yy)``.

    One forward transform and one batched inverse transform; ``f_xy`` is
    symmetric by construction (a single spectral multiplier).
    """
    g = f.grid
    out = _derivative_stack(f, g.deriv_multipliers)
    # The slopes are copied out of the stack: callers keep them (the height
    # slopes in the geometry cache, the density's in an evaluation) and drop
    # the second derivatives, which then free the stack.
    return tuple(ScalarField(g, a) for a in (*out[:2].copy(), *out[2:]))


def integrate(f: ScalarField) -> float:
    """Trapezoidal (= spectrally exact) integral over the periodic domain."""
    return float(f.values.sum() * f.grid.cell_area)


def dealias_solve(rhs: ScalarField, a: float) -> ScalarField:
    """Solve ``(I - a * laplacian) u = rhs`` mode by mode on the modes the
    grid's 2/3-rule mask keeps, in one transform pair.

    ``a`` must be nonnegative so the operator is positive definite; the mean
    mode passes through unchanged.  ``a = 0`` gives the dealiased ``rhs``;
    on a grid built with ``dealias=False`` the mask keeps every mode.
    """
    if a < 0.0:
        raise ValueError(f"helmholtz coefficient must be >= 0, got {a}")
    g = rhs.grid
    spec = _rfft2(rhs.values)
    spec *= g.dealias_mask
    if a != 0.0:
        spec /= 1.0 + a * g.k2
    return ScalarField(g, _irfft2(spec, g.ny))
