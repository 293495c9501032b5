"""Fourier pseudospectral toolbox on periodic rectangles.

Fields live on a uniform ``nx x ny`` grid covering ``[0, lx) x [0, ly)``,
stored row-major with axis 0 along x and axis 1 along y.  All derivative
operators act in spectral space through real FFTs; nonlinear terms are
expected to be formed pointwise by the caller and dealiased with the 2/3
rule afterwards.

A :class:`ScalarField` pairs samples with their grid, and is made only where
a field enters the program (the grid's constructors, a new state, a
snapshot).  The transforms the solver runs take the grid and plain
``(nx, ny)`` arrays; all of them return arrays.

Conventions
-----------
* Forward transforms are unnormalized; inverse transforms divide by
  ``nx * ny`` (the numpy default).
* The Nyquist mode is zeroed in first-derivative multipliers, which keeps
  odd-order derivatives of real fields real and unambiguous.  Even grid
  sizes are required for the same reason.
* The 2/3-rule mask of :func:`_dealias_solve` acts per axis: mode ``m``
  survives iff ``|m| <= (2/3) * (n/2)``, equality included.
* This module alone splits a step's work between threads (:func:`_halves`,
  :func:`_pair`), and only on grids where :func:`_pairs` holds.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "derivatives",
    "get_fft_workers",
]


def get_fft_workers() -> int:
    """The number of threads one transform runs on: always 1, numpy's FFT
    is single-threaded.  On large grids :func:`_pair` runs two transforms
    at once, each still on one thread.

    Kept because ``perfbench/worker.py`` imports it to record the setting.
    """
    return 1


# Non-finite values are reported by the solver's finite checks, not by numpy
# floating-point warnings.  numpy's error state is per thread, so the helper
# thread of :func:`_pair` sets it too.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")

# The smallest grid, in points, whose work :func:`_pair` splits between two
# threads.  Below it the interpreter lock, which changes hands around every
# short ufunc, costs more than the second core gives.  On a 2-core x86 VM,
# pairing made a 500-step 64^2 run 2.1x as slow and a 200-step 128^2 run
# 31 % slower; it made a 40-step 256^2 run 16 % faster, and a warm 256^2
# evaluation 35 % faster.
_PAIR_POINTS = 256 * 256

# The cores this process may run on, read once: every call then runs a
# grid's work on the same threads.  Where the affinity mask cannot be read,
# all cores of the machine count.
_CORES = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

_helper = None  # the one-thread executor of :func:`_pair`, made on first use
_helper_lock = threading.Lock()


def _pairs(g: "Grid") -> bool:
    """Whether :func:`_pair` runs its two calls on two threads on ``g``."""
    return g.nx * g.ny >= _PAIR_POINTS and _CORES >= 2


def _forget_helper() -> None:
    # A forked child has no helper thread; it makes its own on first use.
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _pair(g: "Grid", fa, fb) -> tuple:
    """``(fa(), fb())``: ``fb`` on the helper thread, a one-thread
    executor made on the first paired call, while ``fa`` runs on this one
    when :func:`_pairs` holds for ``g``, else ``fa`` and then ``fb`` here.

    The two calls must touch disjoint arrays, and ``fb`` must not call
    :func:`_pair`.  An exception of either is raised here once both have
    finished; when both raise, ``fa``'s.  ``fb`` runs under :data:`_QUIET`,
    and it must not call a name that a caller may rebind to trace or count
    it (``perfbench/spans.py`` rebinds ``flow.build_cache``, the energy's
    ``clamp`` and the runner's calls), as such wrappers are not thread-safe.
    """
    global _helper
    if not _pairs(g):
        return fa(), fb()
    with _helper_lock:
        if _helper is None:
            # Imported on first use: the import costs about 7 ms and 0.45 MB,
            # which processes whose grids never pair should not pay.
            import concurrent.futures

            _helper = concurrent.futures.ThreadPoolExecutor(
                1, "gradflow-pair", initializer=partial(np.seterr, **_QUIET)
            )
        future = _helper.submit(fb)
    try:
        a = fa()
    finally:
        # Until ``fb`` has ended it may still write to the grid's work arrays,
        # so an exception that arrives meanwhile, such as KeyboardInterrupt,
        # is raised only afterwards.
        interrupted = None
        while True:
            try:
                future.exception()  # returns at once when ended: a retry cannot block
                break
            except BaseException as exc:
                interrupted = exc
        if interrupted is not None:
            raise interrupted
    return a, future.result()


def _halves(g: "Grid", n: int, fn) -> list | tuple:
    """``[fn(slice(0, n))]`` where :func:`_pairs` is false for ``g``, else
    ``fn`` of the two halves of ``range(n)``, run as a :func:`_pair`."""
    if not _pairs(g):
        return [fn(slice(0, n))]
    mid = n // 2
    return _pair(g, lambda: fn(slice(0, mid)), lambda: fn(slice(mid, n)))


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
    g: "Grid", values: np.ndarray, out: np.ndarray | None = None, half: int = 0
) -> np.ndarray:
    """``(f_x, f_y, f_xx, f_xy, f_yy)`` of the samples ``values`` on ``g`` as
    one stack, from one forward transform, written to ``out`` (new if
    absent) and returned.

    The work is the three half spectra of :meth:`Grid._spectral_work` from
    row ``3 * half`` on, so that :func:`_pair` may form a stack with ``half
    = 0`` beside one with ``half = 1``.  The spectrum goes to the third row.
    The slopes, the spectrum times a per-axis factor of
    :attr:`Grid.deriv_factors` each, are inverted first, which frees their
    two rows; then the second derivatives are, with the mixed multiplier
    ``-kx ky`` formed in its row and ``f_yy`` in the spectrum's own.
    """
    ikx, iky, kxx, kyy = g.deriv_factors
    work = g._spectral_work()[3 * half : 3 * half + 3]
    if out is None:
        out = np.empty((5, g.nx, g.ny))
    spec = _rfft2(values, out=work[2])
    np.multiply(ikx, spec, out=work[0])
    np.multiply(iky, spec, out=work[1])
    _irfft2(work[:2], g.ny, out=out[:2])
    np.multiply(kxx, spec, out=work[0])
    np.multiply(-g.kx, g.ky, out=work[1])
    work[1] *= spec
    spec *= kyy
    _irfft2(work, g.ny, out=out[2:])
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with precomputed spectral operators.

    Parameters
    ----------
    nx, ny : int
        Number of points per axis; must be even and at least 8.
    lx, ly : float
        Domain extents, finite and positive; default ``2 * pi`` each.

    ``dealias_mask`` is the 2/3-rule mask of :func:`_dealias_solve`; it is
    always on.  ``deriv_factors`` holds the per-axis derivative multipliers
    ``(1j kx, 1j ky, -kx^2, -ky^2)`` as vectors; no full multiplier array
    is stored.

    The grid owns two work stacks, allocated on first use: six half spectra
    for the transforms (:meth:`_spectral_work`), three for each of two
    fields that may be transformed at once, and five real ``(nx, ny)``
    arrays (:meth:`_work`) in which the solves, the geometry, the evaluation
    and the record form every intermediate.  A state's evaluation and step
    therefore allocate only the arrays they return.  Where :func:`_pairs`
    holds, :func:`_pair` and :func:`_halves` share this work with one helper
    thread, each thread on its own rows of the stacks; a grid is still not
    for use from several threads of the caller at once.
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
        """Six half spectra: rows 0-2 for the field of ``half = 0``, 3-5 for
        that of ``half = 1``."""
        return self._scratch("_spec_work", (6, self.nx, self.ny // 2 + 1), complex)

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


@dataclass
class ScalarField:
    """Real scalar samples on a :class:`Grid`, as they enter the program;
    what is computed from them is a plain array."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.nx, self.grid.ny)
        if self.values.shape != expected:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {expected}"
            )


# -- spectral operators -----------------------------------------------------


def derivatives(f: ScalarField) -> tuple[np.ndarray, ...]:
    """All derivatives up to second order, ``(f_x, f_y, f_xx, f_xy, f_yy)``.

    One forward transform, and two batched inverse transforms: the slopes,
    then the second derivatives.  ``f_xy`` is symmetric by construction (a
    single spectral multiplier).

    The solver forms the same stack in the grid's work arrays
    (:func:`_derivative_stack`); this copy is kept because
    ``perfbench/test_harness.py`` imports it.
    """
    out = _derivative_stack(f.grid, f.values)
    # The slopes are copied out of the stack, so that a caller that keeps
    # them and drops the second derivatives frees the stack.
    return (*out[:2].copy(), *out[2:])


def _dealias_solve(g: Grid, values: np.ndarray, a: float, half: int = 0) -> np.ndarray:
    """Solve ``(I - a * laplacian) u = values`` on ``g`` mode by mode on the
    modes the grid's 2/3-rule mask keeps, in one transform pair.

    ``a`` must be nonnegative so the operator is positive definite; the mean
    mode passes through unchanged.  ``a = 0`` gives the dealiased ``values``.
    The solution is row ``half`` of the grid's real work
    arrays, which the next use overwrites.  The transform uses half spectrum
    ``3 * half``, and the next one for the damping factor, so that ``half =
    0`` and ``half = 1`` may each solve a field at once (see
    :func:`_derivative_stack`) without a grid-sized temporary."""
    work = g._spectral_work()[3 * half : 3 * half + 2]
    spec, factor = _rfft2(values, out=work[0]), work[1]
    spec *= g.dealias_mask
    if a != 0.0:
        factor.imag = 0.0  # as a real factor would be cast for the division
        scale = np.multiply(a, g.k2, out=factor.real)
        scale += 1.0
        spec /= factor
    return _irfft2(spec, g.ny, out=g._work()[half])
