"""Fourier pseudospectral toolbox on periodic rectangles.

Fields live on a uniform ``nx x ny`` grid covering ``[0, lx) x [0, ly)``,
stored row-major with axis 0 along x and axis 1 along y.  All derivative
operators act in spectral space through real FFTs; nonlinear terms are
expected to be formed pointwise by the caller and dealiased with the 2/3
rule afterwards.

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

from dataclasses import dataclass
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


def _rfft2(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    spec = np.fft.rfft(values, axis=-1, out=out)
    return np.fft.fft(spec, axis=-2, out=spec)


def _irfft2(spec: np.ndarray, ny: int, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`_rfft2`; overwrites ``spec``, which every caller
    builds itself."""
    np.fft.ifft(spec, axis=-2, out=spec)
    return np.fft.irfft(spec, n=ny, axis=-1, out=out)


def _derivative_stack(
    f: "ScalarField", n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``(f_x, f_y)`` (``n = 2``) or ``(f_x, f_y, f_xx, f_xy, f_yy)`` (``n =
    5``) as one stack, from one forward and one inverse transform, written to
    ``out`` (new if absent).

    Each row of the grid's spectral work array is the spectrum times a
    per-axis factor of :attr:`Grid.deriv_factors`; the mixed multiplier
    ``-kx ky`` is formed in its row.  The last row holds the spectrum until
    its own turn.
    """
    g = f.grid
    ikx, iky, kxx, kyy = g.deriv_factors
    work = g._spectral_work()[:n]
    spec = _rfft2(f.values, out=work[-1])
    np.multiply(ikx, spec, out=work[0])
    if n == 2:
        spec *= iky
    else:
        np.multiply(iky, spec, out=work[1])
        np.multiply(kxx, spec, out=work[2])
        np.multiply(-g.kx, g.ky, out=work[3])
        work[3] *= spec
        spec *= kyy
    return _irfft2(work, g.ny, out=out)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with precomputed spectral operators.

    Parameters
    ----------
    nx, ny : int
        Number of points per axis; must be even and at least 8.
    lx, ly : float
        Domain extents, finite and positive; default ``2 * pi`` each.

    ``dealias_mask`` is the 2/3-rule mask of :func:`dealias_solve`; it is
    always on.  ``deriv_factors`` holds the per-axis derivative multipliers
    ``(1j kx, 1j ky, -kx^2, -ky^2)`` as vectors; no full multiplier array
    is stored.

    The grid owns two work stacks, allocated on first use: five half
    spectra for the transforms (:meth:`_spectral_work`), and five real
    ``(nx, ny)`` arrays (:meth:`_work`) in which the stacked solve and
    :func:`gradflow.flow.evaluate` form every intermediate.  A state's
    evaluation and step therefore allocate only the arrays they return, and
    a grid is not for concurrent use from threads.
    """

    nx: int
    ny: int
    lx: float = 2.0 * np.pi
    ly: float = 2.0 * np.pi

    def __post_init__(self) -> None:
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if n % 2 != 0 or n < 8:
                raise ValueError(f"{name} must be even and >= 8, got {n}")
        for name, l in (("lx", self.lx), ("ly", self.ly)):
            if not (0.0 < l < np.inf):
                raise ValueError(f"{name} must be finite and positive, got {l}")

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

        # Per-axis derivative factors.  ``1j * k`` is multiplied by 1.0, which
        # makes its real parts +0: the signed zeros of the derivatives of a
        # constant field depend on it.
        set_attr(
            self,
            "deriv_factors",
            (1j * kx_d * 1.0, 1j * ky_d * 1.0, -kx_d * kx_d, -ky_d * ky_d),
        )

        cut_x = (2.0 / 3.0) * (self.nx / 2.0) * (1.0 + 1e-12)
        cut_y = (2.0 / 3.0) * (self.ny / 2.0) * (1.0 + 1e-12)
        set_attr(self, "dealias_mask", (np.abs(mx) <= cut_x) & (np.abs(my) <= cut_y))

    def _scratch(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """The grid's work array ``name``, allocated on first use."""
        work = self.__dict__.get(name)
        if work is None:
            work = np.empty(shape, dtype)
            object.__setattr__(self, name, work)
        return work

    def _work(self) -> np.ndarray:
        """The five real ``(nx, ny)`` work arrays, as one stack."""
        return self._scratch("_real_work", (5, self.nx, self.ny), float)

    def _spectral_work(self) -> np.ndarray:
        """Five half spectra, one per derivative of :func:`derivatives`."""
        return self._scratch("_spec_work", (5, self.nx, self.ny // 2 + 1), complex)

    # -- field constructors -------------------------------------------------

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


@dataclass
class ScalarField:
    """Real scalar samples on a :class:`Grid`; arithmetic goes through
    ``values``."""

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
        if self.x.grid is not self.y.grid and not self.x.grid.compatible(self.y.grid):
            raise ValueError("fields live on incompatible grids")

    @property
    def grid(self) -> Grid:
        return self.x.grid

    def __iter__(self) -> Iterator[ScalarField]:
        return iter((self.x, self.y))


# -- spectral operators -----------------------------------------------------


def gradient(f: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Both first derivatives ``(f_x, f_y)`` from a single forward transform."""
    g = f.grid
    out = _derivative_stack(f, 2)
    return ScalarField(g, out[0]), ScalarField(g, out[1])


def derivatives(
    f: ScalarField,
) -> tuple[ScalarField, ScalarField, ScalarField, ScalarField, ScalarField]:
    """All derivatives up to second order, ``(f_x, f_y, f_xx, f_xy, f_yy)``.

    One forward transform and one batched inverse transform; ``f_xy`` is
    symmetric by construction (a single spectral multiplier).
    """
    g = f.grid
    out = _derivative_stack(f, 5)
    # The slopes are copied out of the stack, so that a caller that keeps
    # them and drops the second derivatives frees the stack.
    return tuple(ScalarField(g, a) for a in (*out[:2].copy(), *out[2:]))


def integrate(f: ScalarField) -> float:
    """Trapezoidal (= spectrally exact) integral over the periodic domain."""
    return float(f.values.sum() * f.grid.cell_area)


def dealias_solve(rhs: ScalarField, a: float) -> ScalarField:
    """Solve ``(I - a * laplacian) u = rhs`` mode by mode on the modes the
    grid's 2/3-rule mask keeps, in one transform pair.

    ``a`` must be nonnegative so the operator is positive definite; the mean
    mode passes through unchanged.  ``a = 0`` gives the dealiased ``rhs``.
    """
    if a < 0.0:
        raise ValueError(f"helmholtz coefficient must be >= 0, got {a}")
    return ScalarField(rhs.grid, _dealias_solve_stack((rhs,), (a,))[0].copy())


def _dealias_solve_stack(fields, coefficients) -> np.ndarray:
    """:func:`dealias_solve` of one or two fields, each with its own
    coefficient, in one transform pair; the solutions are the first rows of
    the grid's real work arrays, which the next use overwrites."""
    g, m = fields[0].grid, len(fields)
    real = g._work()[:m]
    np.stack([f.values for f in fields], out=real)
    spec = _rfft2(real, out=g._spectral_work()[:m])
    spec *= g.dealias_mask
    for row, a in zip(spec, coefficients):
        if a != 0.0:
            row /= 1.0 + a * g.k2
    return _irfft2(spec, g.ny, out=real)
