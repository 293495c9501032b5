"""Fourier pseudospectral toolbox on periodic rectangles.

Fields live on a uniform ``nx x ny`` grid covering ``[0, lx) x [0, ly)``,
stored row-major with axis 0 along x and axis 1 along y.  All derivative
operators act in spectral space through real FFTs; nonlinear terms are
expected to be formed pointwise by the caller and dealiased with the 2/3
rule afterwards.

A :class:`ScalarField` pairs samples with their grid, and is made only where
a field enters the program (the grid's constructors, a new state, a
snapshot).  The transforms the solver runs take the grid and plain
``(nx, ny)`` arrays, and write their results to arrays.

Conventions
-----------
* Forward transforms are unnormalized; inverse transforms divide by
  ``nx * ny`` (the numpy default).
* The Nyquist mode is zeroed in first-derivative multipliers, which keeps
  odd-order derivatives of real fields real and unambiguous.  Even grid
  sizes are required for the same reason.
* The 2/3-rule mask of :func:`_dealias_solve` acts per axis: mode ``m``
  survives iff ``|m| <= (2/3) * (n/2)``, equality included.
* A transform forms its spectra in memory that is idle at the time, and
  allocates none.  Where one field is transformed at a time, a field's
  derivatives use the grid's three half spectra (:attr:`Grid._spectral_work`).
  Where :func:`_pair` transforms two at once, each field works in two half
  spectra that its caller names: any two adjacent real rows that are idle
  until the transforms end serve as one (:func:`_half_spectra`), and the
  grid keeps a single half spectrum, at the cost of three more inverse calls
  per field (:func:`_derivative_stack`).  A damped solve works in a half
  spectrum its caller names, and forms its real damping factor in its own
  output.
* This module alone splits a step's work between threads (:func:`_halves`,
  :func:`_pair`), and only on grids whose :attr:`Grid.paired` is true.  A
  grid fixes that layout when it is made, from its size and the cores read
  at import, and keeps it.  The second thread is one daemon helper,
  ``gradflow-pair``, started on the first paired call; it serves a queue of
  calls.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property

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
# in 6 alternating 20-s pairs of ``perfbench/run.py``, pairing made the
# 500-step 64^2 ``relax64`` runs 1.7x as slow (median wall_s 0.565 ->
# 0.976 s) and the 40-step 256^2 ``relax256`` runs 17 % faster (0.477 ->
# 0.398 s).  A 200-step 128^2 run was 31 % slower.
_PAIR_POINTS = 256 * 256

# The cores this process may run on, read once: every grid made in the
# process then takes its layout (:attr:`Grid.paired`) from the same count.
# Where the affinity mask cannot be read, all cores of the machine count.
_CORES = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

_requests = None  # the queue that :func:`_pair`'s helper thread serves, made on first use
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    # A forked child has no helper thread; it starts its own on first use.
    global _requests, _helper_lock
    _requests, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


class _Call:
    """One call that :func:`_pair` hands to the helper thread, and its outcome."""

    __slots__ = ("fn", "done", "result", "error")

    def __init__(self, fn) -> None:
        self.fn, self.done, self.result, self.error = fn, threading.Event(), None, None

    def run(self) -> None:
        try:
            self.result = self.fn()
        except BaseException as exc:  # raised by the caller, in :func:`_pair`
            self.error = exc
        self.done.set()


def _serve(requests) -> None:
    """The helper thread: run each :class:`_Call` put on ``requests``, in turn."""
    np.seterr(**_QUIET)
    while True:
        call = requests.get()
        call.run()
        # Dropped before the wait for the next call: the served call's
        # closure may hold the arrays of an evaluation its caller has let go.
        del call


def _pair(g: "Grid", fa, fb) -> tuple:
    """``(fa(), fb())``: ``fb`` on the helper thread while ``fa`` runs on
    this one where ``g`` is :attr:`~Grid.paired`, else ``fa`` and then
    ``fb`` here.  The helper is one daemon thread, ``gradflow-pair``,
    started on the first paired call; it serves the calls of every thread
    in turn.

    The two calls must touch disjoint arrays, and ``fb`` must not call
    :func:`_pair`.  An exception of either is raised here once both have
    finished; when both raise, ``fa``'s.  ``fb`` runs under :data:`_QUIET`,
    and it must not call a name that a caller may rebind to trace or count
    it (``perfbench/spans.py`` rebinds ``flow.build_cache``, the energy's
    ``clamp`` and the runner's calls), as such wrappers are not thread-safe.
    """
    global _requests
    if not g.paired:
        return fa(), fb()
    call = _Call(fb)
    with _helper_lock:
        if _requests is None:
            import queue

            _requests = queue.SimpleQueue()
            threading.Thread(
                target=_serve, args=(_requests,), name="gradflow-pair", daemon=True
            ).start()
        _requests.put(call)
    try:
        a = fa()
    finally:
        # Until ``fb`` has ended it may still write to the grid's work arrays,
        # so an exception that arrives meanwhile, such as KeyboardInterrupt,
        # is raised only afterwards.
        interrupted = None
        while True:
            try:
                call.done.wait()  # returns at once when ended: a retry cannot block
                break
            except BaseException as exc:
                interrupted = exc
        if interrupted is not None:
            raise interrupted
    if call.error is not None:
        raise call.error
    return a, call.result


def _halves(g: "Grid", n: int, fn) -> list | tuple:
    """``[fn(slice(0, n))]`` where ``g`` is not :attr:`~Grid.paired`, else
    ``fn`` of the two halves of ``range(n)``, run as a :func:`_pair`."""
    if not g.paired:
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


def _times_mixed(g: "Grid", spec: np.ndarray, out: np.ndarray) -> None:
    """``out = -kx ky spec``, with the multiplier formed in ``out``'s real
    view and a zero imaginary part, as the cast of a real product would
    give, so that no product casts through a numpy buffer."""
    np.multiply(-g.kx, g.ky, out=out.real)
    out.imag = 0.0
    out *= spec


def _half_spectra(rows: np.ndarray, count: int = 1) -> np.ndarray:
    """The memory of ``rows``, a C-contiguous stack of real ``(nx, ny)``
    arrays, as ``count`` consecutive half spectra: a complex ``(count, nx,
    ny // 2 + 1)`` array.  A half spectrum fills one real array and ``2 *
    nx`` values of the next, so two rows hold one, and three hold two.
    ``nx`` is even, so each real array and each half spectrum is a whole
    number of 16-byte complex values long, and every view of a stack's rows
    is as aligned as the stack."""
    _, nx, ny = rows.shape
    flat = rows.reshape(-1)[: count * nx * (ny + 2)]
    return flat.view(complex).reshape(count, nx, ny // 2 + 1)


def _derivative_stack(
    g: "Grid",
    values: np.ndarray,
    slopes: np.ndarray,
    second: np.ndarray,
    spec: np.ndarray | None = None,
    row: np.ndarray | None = None,
) -> None:
    """The derivatives of the samples ``values`` on ``g`` from one forward
    transform: ``(f_x, f_y)`` written to the ``(2, nx, ny)`` array
    ``slopes``, and ``(f_xx, f_xy, f_yy)`` to the ``(3, nx, ny)`` array
    ``second``.  Each multiplier is a per-axis factor of
    :attr:`Grid.deriv_factors`, or the mixed ``-kx ky`` (:func:`_times_mixed`).

    Where ``g`` is not :attr:`~Grid.paired`, one field is transformed at a
    time, in the grid's three half spectra (:attr:`Grid._spectral_work`), and
    ``spec`` and ``row`` are ignored: the spectrum goes to the third, the
    slopes are inverted as one pair, and then the second derivatives as one
    triple, ``f_yy`` in the spectrum's own row.  Where it is paired, :func:`_pair`
    may form the derivatives of two fields at once, each in its own two half
    spectra: ``spec`` holds the spectrum (by default the grid's one half
    spectrum), and ``row`` each derivative on its way to its inverse (by
    default the :func:`_half_spectra` of the grid's real work rows 0-1); each
    of the five derivatives is inverted on its own, the slopes last.
    ``spec``, ``row``, ``slopes`` and ``second`` must not overlap.  The two
    layouts give the same bytes; the first makes two inverse calls, the
    second five.
    """
    ikx, iky, kxx, kyy = g.deriv_factors
    if not g.paired:
        work = g._spectral_work
        spec = _rfft2(values, out=work[2])
        np.multiply(ikx, spec, out=work[0])
        np.multiply(iky, spec, out=work[1])
        _irfft2(work[:2], g.ny, out=slopes)
        np.multiply(kxx, spec, out=work[0])
        _times_mixed(g, spec, out=work[1])
        spec *= kyy
        _irfft2(work, g.ny, out=second)
        return
    if spec is None:
        spec = g._spectral_work[0]
    if row is None:
        (row,) = _half_spectra(g._work[:2])
    _rfft2(values, out=spec)
    np.multiply(kxx, spec, out=row)
    _irfft2(row, g.ny, out=second[0])
    _times_mixed(g, spec, out=row)
    _irfft2(row, g.ny, out=second[1])
    np.multiply(spec, kyy, out=row)
    _irfft2(row, g.ny, out=second[2])
    np.multiply(iky, spec, out=row)
    _irfft2(row, g.ny, out=slopes[1])
    np.multiply(ikx, spec, out=spec)
    _irfft2(spec, g.ny, out=slopes[0])


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with precomputed spectral operators.

    Parameters
    ----------
    nx, ny : int
        Number of points per axis; must be an even integer, at least 8.
    lx, ly : float
        Domain extents, finite and positive; default ``2 * pi`` each.

    ``dealias_mask`` is the 2/3-rule mask of :func:`_dealias_solve`; it is
    always on.  ``deriv_factors`` holds the per-axis derivative multipliers
    ``(1j kx, 1j ky, -kx^2, -ky^2)`` as vectors, and ``k_sq`` the squares
    ``(kx^2, ky^2)`` with the Nyquist modes kept, from which
    :func:`_dealias_solve` forms ``|k|^2``; no full multiplier array is
    stored.

    ``paired`` is the grid's thread layout, fixed when it is made: true on
    grids of at least ``_PAIR_POINTS`` points where the process may run on
    two cores or more (``_CORES``, read at import).  There :func:`_pair` and
    :func:`_halves` share a step's work with one helper thread, each thread
    in its own arrays; a grid is still not for use from several threads of
    the caller at once.

    The grid owns two work stacks, each allocated on first use at its final
    size: five real ``(nx, ny)`` arrays (:attr:`_work`) in which the solves,
    the geometry, the evaluation and the record form every intermediate, and
    the half spectra of :attr:`_spectral_work`, three where one field is
    transformed at a time and one where the grid is ``paired``.  A state's
    evaluation and step therefore allocate only the arrays they return.
    """

    nx: int
    ny: int
    lx: float = 2.0 * np.pi
    ly: float = 2.0 * np.pi

    def __post_init__(self) -> None:
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n % 2 or n < 8:
                raise ValueError(f"{name} must be an even integer >= 8, got {n}")
        for name, l in (("lx", self.lx), ("ly", self.ly)):
            real = isinstance(l, (int, float, np.integer, np.floating)) and not isinstance(l, bool)
            if not (real and 0.0 < l < np.inf):
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

        # Per-axis squares (Nyquist included) of the damped solves' |k|^2.
        set_attr(self, "k_sq", (kx * kx, ky * ky))

        # Per-axis derivative factors, all complex, so that multiplying a
        # spectrum by one casts nothing through a buffer; ``-k^2`` becomes
        # the complex value that the cast would give.  ``1j * k`` is
        # multiplied by 1.0, which makes its real parts +0: the signed zeros
        # of the derivatives of a constant field depend on it.
        set_attr(
            self,
            "deriv_factors",
            (
                1j * kx_d * 1.0,
                1j * ky_d * 1.0,
                (-kx_d * kx_d).astype(complex),
                (-ky_d * ky_d).astype(complex),
            ),
        )

        cut_x = (2.0 / 3.0) * (self.nx / 2.0) * (1.0 + 1e-12)
        cut_y = (2.0 / 3.0) * (self.ny / 2.0) * (1.0 + 1e-12)
        set_attr(self, "dealias_mask", (np.abs(mx) <= cut_x) & (np.abs(my) <= cut_y))
        set_attr(self, "paired", self.nx * self.ny >= _PAIR_POINTS and _CORES >= 2)

    @cached_property
    def _work(self) -> np.ndarray:
        """The five real ``(nx, ny)`` work arrays, as one stack."""
        return np.empty((5, self.nx, self.ny))

    @cached_property
    def _spectral_work(self) -> np.ndarray:
        """The half spectra of :func:`_derivative_stack`: three for the one
        field transformed at a time, or, on a :attr:`paired` grid, one for a
        field whose caller names no spectrum."""
        return np.empty((1 if self.paired else 3, self.nx, self.ny // 2 + 1), complex)

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

    One forward transform, and inverse transforms as
    :func:`_derivative_stack` lays them out.  ``f_xy`` is symmetric by
    construction (a single spectral multiplier).

    The solver forms the same derivatives in arrays of its choice
    (:func:`_derivative_stack`); this copy is kept because
    ``perfbench/test_harness.py`` imports it.  The slopes and the second
    derivatives are rows of two separate arrays, so that a caller that keeps
    the slopes and drops the rest frees the second derivatives.
    """
    g = f.grid
    slopes, second = np.empty((2, g.nx, g.ny)), np.empty((3, g.nx, g.ny))
    _derivative_stack(g, f.values, slopes, second)
    return (*slopes, *second)


def _dealias_solve(
    g: Grid, values: np.ndarray, a: float, out: np.ndarray, spec: np.ndarray
) -> np.ndarray:
    """Solve ``(I - a * laplacian) u = values`` on ``g`` mode by mode on the
    modes the grid's 2/3-rule mask keeps, in one transform pair, and write
    the solution ``u`` to the C-contiguous real array ``out``, returned.

    ``a`` must be nonnegative so the operator is positive definite; the mean
    mode passes through unchanged.  ``a = 0`` gives the dealiased ``values``.
    The transform works in the half spectrum ``spec``, which overlaps
    neither ``values`` nor ``out``, so that two solves in disjoint arrays may
    run at once.  The real damping factor ``1 + a |k|^2`` is formed from
    :attr:`Grid.k_sq` in the memory of ``out``, which the inverse transform
    writes only after the division, so the solve needs no grid-sized
    temporary."""
    spec = _rfft2(values, out=spec)
    spec *= g.dealias_mask
    if a != 0.0:
        factor = out.reshape(-1)[: spec.size].reshape(spec.shape)
        np.add(*g.k_sq, out=factor)
        np.multiply(a, factor, out=factor)
        factor += 1.0
        spec /= factor
    return _irfft2(spec, g.ny, out=out)
