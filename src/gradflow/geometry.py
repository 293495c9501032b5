"""Differential geometry of graph surfaces z = h(x, y) over a periodic base.

Every surface quantity is expressed through flat partial derivatives of the
height field and of scalars carried on the surface, so all of it reduces to
pointwise algebra on spectrally computed derivatives.  The conventions:

* metric determinant ``|g| = 1 + |dh|^2``,
* scaled mean curvature ``hfrak = (div dh - dh.d2h.dh / |g|) / |g|``,
  which is also the Laplace-Beltrami image of ``h`` itself.

The flow reads the surface only through the slopes ``dh``, ``|g|`` and
``hfrak``; the mean curvature ``H = sqrt(|g|) * hfrak`` and the upward unit
normal ``(-h_x, -h_y, 1) / sqrt(|g|)`` follow from them, and no run forms
either.

Vector fields on the surface are handled through their flat (component)
representation ``v = (v_x, v_y)``, as a ``(2, nx, ny)`` stack.

The pointwise kernels write into an ``out`` array with caller-supplied work
arrays, so that :func:`build_cache`, :func:`gradflow.flow.evaluate` and
:func:`gradflow.diagnostics.record` form their intermediates in the grid's
five work arrays.  Only :func:`build_cache` takes a field, the height; the
cache and every function here hold and return plain ``(nx, ny)`` arrays.
The solver's runs call every function here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid, ScalarField, _derivative_stack

__all__ = [
    "hessian_trace",
    "covariant_square",
    "truesdell_solve",
    "GeometryCache",
    "build_cache",
    "covariant_norm_sq",
    "surface_integral",
]


# ---------------------------------------------------------------------------
# Pointwise kernels
#
# Each surface formula is written once, here, on arrays of one grid: flat
# derivatives the caller already holds, the height slopes ``hx, hy`` and the
# metric determinant ``g``.  ``build_cache``, ``covariant_norm_sq`` and
# ``flow.evaluate`` call them, so the oracle tests of the kernels check the
# solver's arithmetic.
# Each kernel writes its result to ``out`` and uses the arrays of ``work``
# for its intermediates; either is new when not given, and neither may be an
# input unless the kernel says so.  Each expression keeps its operation
# order, one ufunc per operation: output bytes depend on it.


def _buffers(like, out, work, k):
    """``out`` and ``k`` work arrays shaped like ``like``, new where absent."""
    if out is None:
        out = np.empty(np.shape(like))
    if work is None:
        work = np.empty((k,) + np.shape(like))
    return out, work[:k]


def hessian_trace(fxx, fxy, fyy, hx, hy, g, out=None, work=None):
    """Metric trace of a flat Hessian, ``fxx + fyy - dh.D2f.dh / |g|``; one
    work array."""
    out, (t,) = _buffers(g, out, work, 1)
    np.multiply(hx, hx, out=out)
    out *= fxx
    np.multiply(2.0, hx, out=t)
    t *= hy
    t *= fxy
    out += t
    np.multiply(hy, hy, out=t)
    t *= fyy
    out += t
    out /= g
    np.add(fxx, fyy, out=t)
    return np.subtract(t, out, out=out)


def covariant_square(ax, ay, a_dh, g, out=None, work=None):
    """Squared surface norm of flat components ``a`` given ``a_dh = a.dh``:
    ``a.a - (a.dh)^2 / |g|``; one work array.  ``out`` may be ``ax``."""
    out, (t,) = _buffers(g, out, work, 1)
    np.multiply(ax, ax, out=out)
    np.multiply(ay, ay, out=t)
    out += t
    np.multiply(a_dh, a_dh, out=t)
    t /= g
    return np.subtract(out, t, out=out)


def truesdell_solve(
    rate, psi, px, py, p_dh, dth, hx, hy, g, hfrak, phi=None, div_t=None, out=None, work=None
):
    """Time derivative of a surface density whose Truesdell rate is ``rate``.

    The Truesdell rate is ``dtpsi - T dth + psi div_t + v.(dpsi - T dh)``
    with the transport coefficient ``T = psi hfrak + p_dh / |g|``; this
    solves it for ``dtpsi``.  ``px, py`` are the flat gradient of ``psi`` and
    ``p_dh`` its projection on ``dh``; ``dth`` is the height rate.  The flat
    tangential velocity is ``v = phi (px, py)``, and ``div_t`` its surface
    divergence; without them the velocity terms vanish.
    Three work arrays, and a fourth with ``phi``, in which ``phi px`` and
    then ``phi py`` are formed; the fourth may be ``div_t``, which is read
    before it.  ``out`` may be ``rate``.
    """
    out, work = _buffers(psi, out, work, 3 if phi is None else 4)
    transport, t, u = work[:3]
    np.multiply(psi, hfrak, out=transport)
    np.divide(p_dh, g, out=t)
    transport += t
    np.multiply(transport, dth, out=t)
    np.add(t, rate, out=out)
    if phi is not None:
        v_i = work[3]
        np.multiply(psi, div_t, out=t)
        out -= t
        for p, h, prod in ((px, hx, t), (py, hy, u)):
            np.multiply(transport, h, out=prod)
            np.subtract(p, prod, out=prod)
            np.multiply(phi, p, out=v_i)
            np.multiply(v_i, prod, out=prod)
        t += u
        out -= t
    return out


# ---------------------------------------------------------------------------
# Surface cache, covariant norm and surface integral


@dataclass
class GeometryCache:
    """What :func:`build_cache` makes of one height field: its ``grid``, the
    slopes ``hx, hy``, the metric determinant ``g_det`` and ``hfrak``.

    Built once per height field (typically once per time step) and shared by
    the evaluation and the record of that surface.  The flow reads the
    surface only through these; the area element ``sqrt(|g|)``, the mean
    curvature ``sqrt(|g|) hfrak`` and the normal are formed where they are
    needed.
    """

    grid: Grid
    hx: np.ndarray
    hy: np.ndarray
    g_det: np.ndarray
    hfrak: np.ndarray


def build_cache(h: ScalarField) -> GeometryCache:
    """Assemble the :class:`GeometryCache` for a height field.

    Raises
    ------
    FloatingPointError
        If the height field or any derived quantity is non-finite.
    """
    if not np.all(np.isfinite(h.values)):
        raise FloatingPointError("height field contains non-finite values")
    grid = h.grid
    # The slopes, which the cache keeps, are written to their own array, and
    # the second derivatives to the grid's work arrays.
    # :func:`gradflow.flow.evaluate` may transform the density's derivatives
    # meanwhile, in the other half of the spectral work.
    work = grid._work()
    slopes = np.empty((2, grid.nx, grid.ny))
    _derivative_stack(grid, h.values, slopes, work[2:], half=0)
    hx, hy = slopes

    g_det = np.multiply(hx, hx)
    g_det += 1.0
    g_det += np.multiply(hy, hy, out=work[0])
    hfrak = hessian_trace(*work[2:], hx, hy, g_det, work=work[:1])
    hfrak /= g_det
    if not np.all(np.isfinite(hfrak)):
        raise FloatingPointError("curvature evaluation produced non-finite values")
    return GeometryCache(grid, hx, hy, g_det, hfrak)


def covariant_norm_sq(
    v: np.ndarray, cache: GeometryCache, out: np.ndarray | None = None, work=None
) -> np.ndarray:
    """Squared surface norm of a tangent vector given by flat components,
    written to ``out``, which may be ``v[0]``; two work arrays.  Both are new
    when not given."""
    vx, vy = v
    out, (v_dh, t) = _buffers(vx, out, work, 2)
    np.multiply(vx, cache.hx, out=v_dh)
    v_dh += np.multiply(vy, cache.hy, out=t)
    return covariant_square(vx, vy, v_dh, cache.g_det, out=out, work=(t,))


def surface_integral(
    f: np.ndarray,
    cache: GeometryCache,
    sqrt_g: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> float:
    """Integral of the scalar samples ``f`` over the curved surface (area
    weight included), by the trapezoidal rule: the sum of ``f sqrt_g`` times
    the grid's ``cell_area``, which is spectrally exact on the periodic
    domain.

    ``sqrt_g`` is the area element ``sqrt(|g|)``, for a caller that
    integrates several fields and forms it once; it is formed here from
    ``cache.g_det`` when absent.  The integrand ``f sqrt_g`` is formed in
    ``out``, new when absent.
    """
    area = np.sqrt(cache.g_det) if sqrt_g is None else sqrt_g
    return float(np.multiply(f, area, out=out).sum() * cache.grid.cell_area)
