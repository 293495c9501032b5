"""Differential geometry of graph surfaces z = h(x, y) over a periodic base.

Every surface quantity is expressed through flat partial derivatives of the
height field and of scalars carried on the surface, so all operators reduce
to pointwise algebra on spectrally computed derivatives.  The conventions:

* metric determinant ``|g| = 1 + |dh|^2``,
* scaled mean curvature ``hfrak = (div dh - dh.d2h.dh / |g|) / |g|``,
  which is also the Laplace-Beltrami image of ``h`` itself,
* mean curvature ``H = sqrt(|g|) * hfrak``,
* upward unit normal ``nu = (-h_x, -h_y, 1) / sqrt(|g|)``.

Vector fields on the surface are handled through their flat (component)
representation ``v = (v_x, v_y)``; the corresponding ambient tangent vector
is recovered by :func:`reconstruct_velocity`.

The pointwise kernels write into an ``out`` array with caller-supplied work
arrays, so that :func:`build_cache` and :func:`gradflow.flow.evaluate` form
their intermediates in the grid's five work arrays; the operators let them
allocate.  Only :func:`build_cache` takes a field, the height; the cache and
every operator hold and return plain ``(nx, ny)`` arrays, and a tangent
vector is its ``(2, nx, ny)`` stack of flat components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid, ScalarField, _derivative_stack

__all__ = [
    "hessian_trace",
    "covariant_square",
    "tangential_divergence",
    "truesdell_solve",
    "GeometryCache",
    "build_cache",
    "laplace_beltrami",
    "covariant_norm_sq",
    "div_comp_material",
    "truesdell_rate",
    "reconstruct_velocity",
    "surface_integral",
]


# ---------------------------------------------------------------------------
# Pointwise kernels
#
# Each surface formula is written once, here, on arrays of one grid: flat
# derivatives the caller already holds, the height slopes ``hx, hy`` and the
# metric determinant ``g``.  The operators below and ``flow.evaluate`` call
# them, so the oracle tests of the operators check the solver's arithmetic.
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


def tangential_divergence(vx_x, vx_y, vy_x, vy_y, hx, hy, g, out=None, work=None):
    """Surface divergence of the tangent field with flat components ``v``,
    from their flat gradients: ``vx_x + vy_y - dh.Dv.dh / |g|``; one work
    array."""
    out, (t,) = _buffers(g, out, work, 1)
    np.multiply(hx, vx_x, out=out)
    out *= hx
    for a, b, c in ((hx, vy_x, hy), (hy, vx_y, hx), (hy, vy_y, hy)):
        np.multiply(a, b, out=t)
        t *= c
        out += t
    out /= g
    np.add(vx_x, vy_y, out=t)
    return np.subtract(t, out, out=out)


def truesdell_solve(
    rate, psi, px, py, p_dh, dth, hx, hy, g, hfrak, v=None, div_t=None, out=None, work=None
):
    """Time derivative of a surface density whose Truesdell rate is ``rate``.

    The Truesdell rate is ``dtpsi - T dth + psi div_t + v.(dpsi - T dh)``
    with the transport coefficient ``T = psi hfrak + p_dh / |g|``; this
    solves it for ``dtpsi``.  ``px, py`` are the flat gradient of ``psi`` and
    ``p_dh`` its projection on ``dh``; ``dth`` is the height rate.  ``v``
    holds the flat tangential velocity and ``div_t`` its
    :func:`tangential_divergence`; without them the velocity terms vanish.
    Three work arrays; ``out`` may be ``rate``.
    """
    out, (transport, t, u) = _buffers(psi, out, work, 3)
    np.multiply(psi, hfrak, out=transport)
    np.divide(p_dh, g, out=t)
    transport += t
    np.multiply(transport, dth, out=t)
    np.add(t, rate, out=out)
    if v is not None:
        vx, vy = v
        np.multiply(psi, div_t, out=t)
        out -= t
        for a, p, h, prod in ((vx, px, hx, t), (vy, py, hy, u)):
            np.multiply(transport, h, out=prod)
            np.subtract(p, prod, out=prod)
            np.multiply(a, prod, out=prod)
        t += u
        out -= t
    return out


# ---------------------------------------------------------------------------
# Surface cache and operators


@dataclass
class GeometryCache:
    """Slopes of the height field and derived metric quantities, as arrays.

    Built once per height field (typically once per time step) and shared by
    every geometric operator evaluated against that surface.  It stores the
    slopes ``hx, hy``, ``|g|`` and ``hfrak``; the area element ``sqrt_g``, the
    mean curvature and the normal are computed on demand, as only the surface
    integrals of a record and the operators read them.
    """

    grid: Grid
    hx: np.ndarray
    hy: np.ndarray
    g_det: np.ndarray
    hfrak: np.ndarray

    @property
    def sqrt_g(self) -> np.ndarray:
        """Area element ``sqrt(|g|)``."""
        return np.sqrt(self.g_det)

    @property
    def mean_curv(self) -> np.ndarray:
        """Mean curvature ``H = sqrt(|g|) * hfrak``."""
        return self.sqrt_g * self.hfrak

    @property
    def normal(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Upward unit normal ``(-h_x, -h_y, 1) / sqrt(|g|)``."""
        sqrt_g = self.sqrt_g
        return -self.hx / sqrt_g, -self.hy / sqrt_g, 1.0 / sqrt_g


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
    # The derivatives land in the grid's work arrays; the slopes, which the
    # cache keeps, are copied out of them.  :func:`gradflow.flow.evaluate`
    # may transform the density's derivatives meanwhile, in the other half.
    work = _derivative_stack(grid, h.values, 5, out=grid._work(), half=0)
    hx, hy = work[:2].copy()

    g_det = np.multiply(hx, hx)
    g_det += 1.0
    g_det += np.multiply(hy, hy, out=work[0])
    hfrak = hessian_trace(*work[2:], hx, hy, g_det, work=work[:1])
    hfrak /= g_det
    if not np.all(np.isfinite(hfrak)):
        raise FloatingPointError("curvature evaluation produced non-finite values")
    return GeometryCache(grid, hx, hy, g_det, hfrak)


def laplace_beltrami(f: np.ndarray, cache: GeometryCache) -> np.ndarray:
    """Surface Laplacian of the scalar samples ``f`` on the cached surface."""
    fx, fy, fxx, fxy, fyy = _derivative_stack(cache.grid, f, 5)
    hx, hy = cache.hx, cache.hy
    trace = hessian_trace(fxx, fxy, fyy, hx, hy, cache.g_det)
    return trace - (fx * hx + fy * hy) * cache.hfrak


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


def _velocity_gradients(grid: Grid, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(vx_x, vx_y, vy_x, vy_y)``."""
    return tuple(d for c in v for d in _derivative_stack(grid, c, 2))


def div_comp_material(v: np.ndarray, dth: np.ndarray, cache: GeometryCache) -> np.ndarray:
    """Surface divergence of the material velocity with flat part ``v`` and
    height rate ``dth``."""
    (vx, vy), hx, hy = v, cache.hx, cache.hy
    div_t = tangential_divergence(*_velocity_gradients(cache.grid, v), hx, hy, cache.g_det)
    return div_t - (dth + (vx * hx + vy * hy)) * cache.hfrak


def truesdell_rate(
    psi: np.ndarray,
    dtpsi: np.ndarray,
    v: np.ndarray,
    dth: np.ndarray,
    cache: GeometryCache,
) -> np.ndarray:
    """Truesdell rate of a surface density: material rate plus dilution.

    Vanishing Truesdell rate (up to a surface-divergence flux) is the
    statement that the integral of the density over the moving surface is
    conserved.  It is ``dtpsi`` minus the rate :func:`truesdell_solve`
    gives for a vanishing Truesdell rate.
    """
    px, py = _derivative_stack(cache.grid, psi, 2)
    hx, hy, g = cache.hx, cache.hy, cache.g_det
    still = truesdell_solve(
        0.0, psi, px, py, px * hx + py * hy, dth, hx, hy, g, cache.hfrak, v=v,
        div_t=tangential_divergence(*_velocity_gradients(cache.grid, v), hx, hy, g),
    )
    return dtpsi - still


def reconstruct_velocity(
    v: np.ndarray, dth: np.ndarray, cache: GeometryCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ambient coordinates of the material velocity of the surface.

    The returned vector is the sum of the tangential velocity with flat
    components ``v`` and the normal velocity implied by the height rate.
    """
    (vx, vy), hx, hy = v, cache.hx, cache.hy
    s = (dth + vx * hx + vy * hy) / cache.g_det
    return vx - s * hx, vy - s * hy, s


def surface_integral(
    f: np.ndarray,
    cache: GeometryCache,
    sqrt_g: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> float:
    """Integral of the scalar samples ``f`` over the curved surface (area
    weight included), by the trapezoidal rule of
    :func:`gradflow.spectral.integrate`.

    ``sqrt_g`` is the cache's area element, for a caller that integrates
    several fields and forms it once; it is computed here when absent.  The
    integrand ``f sqrt_g`` is formed in ``out``, new when absent.
    """
    area = cache.sqrt_g if sqrt_g is None else sqrt_g
    return float(np.multiply(f, area, out=out).sum() * cache.grid.cell_area)
