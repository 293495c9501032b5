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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    Grid,
    ScalarField,
    VectorField2,
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
# Each expression keeps its operation order: output bytes depend on it.


def hessian_trace(fxx, fxy, fyy, hx, hy, g):
    """Metric trace of a flat Hessian, ``fxx + fyy - dh.D2f.dh / |g|``."""
    return fxx + fyy - (hx * hx * fxx + 2.0 * hx * hy * fxy + hy * hy * fyy) / g


def covariant_square(ax, ay, a_dh, g):
    """Squared surface norm of flat components ``a`` given ``a_dh = a.dh``:
    ``a.a - (a.dh)^2 / |g|``."""
    return ax * ax + ay * ay - a_dh * a_dh / g


def tangential_divergence(vx_x, vx_y, vy_x, vy_y, hx, hy, g):
    """Surface divergence of the tangent field with flat components ``v``,
    from their flat gradients: ``vx_x + vy_y - dh.Dv.dh / |g|``."""
    dh_dv_dh = hx * vx_x * hx + hx * vy_x * hy + hy * vx_y * hx + hy * vy_y * hy
    return vx_x + vy_y - dh_dv_dh / g


def truesdell_solve(rate, psi, px, py, p_dh, dth, hx, hy, g, hfrak, v=None, dv=None):
    """Time derivative of a surface density whose Truesdell rate is ``rate``.

    The Truesdell rate is ``dtpsi - T dth + psi div_t v + v.(dpsi - T dh)``
    with the transport coefficient ``T = psi hfrak + p_dh / |g|`` and the
    :func:`tangential_divergence` ``div_t``; this solves it for ``dtpsi``.
    ``px, py`` are the flat gradient of ``psi`` and ``p_dh`` its projection
    on ``dh``; ``dth`` is the height rate.  ``v = (vx, vy)`` holds the flat
    tangential velocity and ``dv = (vx_x, vx_y, vy_x, vy_y)`` its flat
    gradients; without them (no tangential motion) the velocity terms are
    skipped.
    """
    transport = psi * hfrak + p_dh / g
    out = transport * dth + rate
    if v is not None:
        vx, vy = v
        out = out - psi * tangential_divergence(*dv, hx, hy, g)
        out = out - (vx * (px - transport * hx) + vy * (py - transport * hy))
    return out


# ---------------------------------------------------------------------------
# Surface cache and ScalarField operators


@dataclass
class GeometryCache:
    """Derivatives of the height field and derived metric quantities.

    Built once per height field (typically once per time step) and shared by
    every geometric operator evaluated against that surface.
    """

    h: ScalarField
    dh: VectorField2
    g_det: ScalarField
    sqrt_g: ScalarField
    hfrak: ScalarField
    mean_curv: ScalarField

    @property
    def grid(self) -> Grid:
        return self.h.grid

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
    hx, hy, hxx, hxy, hyy = (f.values for f in derivatives(h))

    g_det = 1.0 + hx * hx + hy * hy
    sqrt_g = np.sqrt(g_det)
    hfrak = hessian_trace(hxx, hxy, hyy, hx, hy, g_det) / g_det
    if not np.all(np.isfinite(hfrak)):
        raise FloatingPointError("curvature evaluation produced non-finite values")

    wrap = lambda v: ScalarField(grid, v)
    return GeometryCache(
        h=h,
        dh=VectorField2(wrap(hx), wrap(hy)),
        g_det=wrap(g_det),
        sqrt_g=wrap(sqrt_g),
        hfrak=wrap(hfrak),
        mean_curv=wrap(sqrt_g * hfrak),
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
    hx, hy = cache.dh.x.values, cache.dh.y.values
    still = truesdell_solve(
        0.0, psi.values, px, py, px * hx + py * hy, dth.values, hx, hy,
        cache.g_det.values, cache.hfrak.values,
        v=(v.x.values, v.y.values), dv=_velocity_gradients(v),
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


def surface_integral(f: ScalarField, cache: GeometryCache) -> float:
    """Integral of a scalar over the curved surface (area weight included)."""
    return integrate(ScalarField(f.grid, f.values * cache.sqrt_g.values))
