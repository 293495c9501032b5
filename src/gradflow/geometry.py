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
their intermediates in the grid's five work arrays; the operators on fields
let them allocate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    Grid,
    ScalarField,
    VectorField2,
    _derivative_stack,
    derivatives,
    gradient,
    integrate,
)

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
    ``a.a - (a.dh)^2 / |g|``; one work array."""
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
# Surface cache and ScalarField operators


@dataclass
class GeometryCache:
    """Derivatives of the height field and derived metric quantities.

    Built once per height field (typically once per time step) and shared by
    every geometric operator evaluated against that surface.  It stores the
    slopes, ``|g|`` and ``hfrak``; the area element ``sqrt_g``, the mean
    curvature and the normal are computed on demand, as only the surface
    integrals of a record and the operators read them.
    """

    h: ScalarField
    dh: VectorField2
    g_det: ScalarField
    hfrak: ScalarField

    @property
    def grid(self) -> Grid:
        return self.h.grid

    @property
    def sqrt_g(self) -> ScalarField:
        """Area element ``sqrt(|g|)``."""
        return ScalarField(self.grid, np.sqrt(self.g_det.values))

    @property
    def mean_curv(self) -> ScalarField:
        """Mean curvature ``H = sqrt(|g|) * hfrak``."""
        return ScalarField(self.grid, self.sqrt_g.values * self.hfrak.values)

    @property
    def normal(self) -> tuple[ScalarField, ScalarField, ScalarField]:
        """Upward unit normal ``(-h_x, -h_y, 1) / sqrt(|g|)``."""
        grid, sqrt_g = self.grid, self.sqrt_g.values
        return (
            ScalarField(grid, -self.dh.x.values / sqrt_g),
            ScalarField(grid, -self.dh.y.values / sqrt_g),
            ScalarField(grid, 1.0 / sqrt_g),
        )


def build_cache(h: ScalarField) -> GeometryCache:
    """Assemble the :class:`GeometryCache` for a height field.

    Raises
    ------
    FloatingPointError
        If the height field or any derived quantity is non-finite.
    """
    h.check_finite("height field")
    grid = h.grid
    # The derivatives land in the grid's work arrays; the slopes, which the
    # cache keeps, are copied out of them.
    work = _derivative_stack(h, 5, out=grid._work())
    hx, hy = work[:2].copy()

    g_det = np.multiply(hx, hx)
    g_det += 1.0
    g_det += np.multiply(hy, hy, out=work[0])
    hfrak = hessian_trace(*work[2:], hx, hy, g_det, work=work[:1])
    hfrak /= g_det
    if not np.all(np.isfinite(hfrak)):
        raise FloatingPointError("curvature evaluation produced non-finite values")

    wrap = lambda v: ScalarField(grid, v)
    return GeometryCache(
        h=h, dh=VectorField2(wrap(hx), wrap(hy)), g_det=wrap(g_det), hfrak=wrap(hfrak)
    )


def laplace_beltrami(f: ScalarField, cache: GeometryCache) -> ScalarField:
    """Surface Laplacian of a scalar on the cached surface."""
    fx, fy, fxx, fxy, fyy = (s.values for s in derivatives(f))
    hx, hy = cache.dh.x.values, cache.dh.y.values
    trace = hessian_trace(fxx, fxy, fyy, hx, hy, cache.g_det.values)
    return ScalarField(f.grid, trace - (fx * hx + fy * hy) * cache.hfrak.values)


def covariant_norm_sq(v: VectorField2, cache: GeometryCache) -> ScalarField:
    """Squared surface norm of a tangent vector given by flat components."""
    vx, vy = v.x.values, v.y.values
    v_dh = vx * cache.dh.x.values + vy * cache.dh.y.values
    return ScalarField(v.x.grid, covariant_square(vx, vy, v_dh, cache.g_det.values))


def _velocity_gradients(v: VectorField2) -> tuple[np.ndarray, ...]:
    """``(vx_x, vx_y, vy_x, vy_y)`` as raw arrays."""
    return tuple(s.values for c in (v.x, v.y) for s in gradient(c))


def div_comp_material(
    v: VectorField2, dth: ScalarField, cache: GeometryCache
) -> ScalarField:
    """Surface divergence of the material velocity with flat part ``v`` and
    height rate ``dth``."""
    hx, hy = cache.dh.x.values, cache.dh.y.values
    div_t = tangential_divergence(*_velocity_gradients(v), hx, hy, cache.g_det.values)
    v_dh = v.x.values * hx + v.y.values * hy
    return ScalarField(dth.grid, div_t - (dth.values + v_dh) * cache.hfrak.values)


def truesdell_rate(
    psi: ScalarField,
    dtpsi: ScalarField,
    v: VectorField2,
    dth: ScalarField,
    cache: GeometryCache,
) -> ScalarField:
    """Truesdell rate of a surface density: material rate plus dilution.

    Vanishing Truesdell rate (up to a surface-divergence flux) is the
    statement that the integral of the density over the moving surface is
    conserved.  It is ``dtpsi`` minus the rate :func:`truesdell_solve`
    gives for a vanishing Truesdell rate.
    """
    px, py = (s.values for s in gradient(psi))
    hx, hy, g = cache.dh.x.values, cache.dh.y.values, cache.g_det.values
    still = truesdell_solve(
        0.0, psi.values, px, py, px * hx + py * hy, dth.values, hx, hy, g,
        cache.hfrak.values, v=(v.x.values, v.y.values),
        div_t=tangential_divergence(*_velocity_gradients(v), hx, hy, g),
    )
    return ScalarField(psi.grid, dtpsi.values - still)


def reconstruct_velocity(
    v: VectorField2, dth: ScalarField, cache: GeometryCache
) -> tuple[ScalarField, ScalarField, ScalarField]:
    """Ambient coordinates of the material velocity of the surface.

    The returned vector is the sum of the tangential velocity with flat
    components ``v`` and the normal velocity implied by the height rate.
    """
    hx, hy = cache.dh.x.values, cache.dh.y.values
    g = cache.g_det.values
    s = (dth.values + v.x.values * hx + v.y.values * hy) / g
    grid = dth.grid
    return (
        ScalarField(grid, v.x.values - s * hx),
        ScalarField(grid, v.y.values - s * hy),
        ScalarField(grid, s),
    )


def surface_integral(
    f: ScalarField, cache: GeometryCache, sqrt_g: np.ndarray | None = None
) -> float:
    """Integral of a scalar over the curved surface (area weight included).

    ``sqrt_g`` is the cache's area element, for a caller that integrates
    several fields and forms it once; it is computed here when absent.
    """
    area = cache.sqrt_g.values if sqrt_g is None else sqrt_g
    return integrate(ScalarField(f.grid, f.values * area))
