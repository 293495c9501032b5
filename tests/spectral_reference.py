"""Spectral reference compositions of the surface operators, and the
field conveniences that no run calls.

The solver forms the divergence of its tangential velocity analytically
(see :func:`gradflow.flow.evaluate`), so no run calls the operators below.
The tests use them as a second, independent composition of the same
surface calculus: each operator differentiates its arguments with
:func:`gradflow.derivatives` (or :func:`gradient`, its slopes) and combines
the results with the :mod:`gradflow.geometry` kernels, on a
:class:`gradflow.GeometryCache`.  Vector fields are ``(2, nx, ny)`` stacks
of flat components, as in the package.

The field conveniences take a :class:`gradflow.ScalarField`: its slopes
(:func:`gradient`), its integral over the flat domain (:func:`integrate`),
and its dealiased, damped solve (:func:`dealias_solve`, a checking copy of
the solve :func:`gradflow.flow.step` runs).  :func:`total_energy` integrates
the energy density over a cached surface, as
:func:`gradflow.diagnostics.record` does with the density its evaluation
forms.

Unlike :mod:`oracles`, this module is built on the package's spectral
machinery: the finite-difference oracle checks these operators, and they
in turn cross-check what :func:`gradflow.flow.evaluate` forms.

The area element, mean curvature and unit normal of a cache are formed
here too, from the ``g_det`` and ``hfrak`` that :func:`gradflow.build_cache`
makes, since no run reads them.
"""

from __future__ import annotations

import numpy as np

from gradflow import EnergyModel, GeometryCache, Grid, ScalarField, derivatives, surface_integral
from gradflow.geometry import hessian_trace, truesdell_solve
from gradflow.spectral import _dealias_solve


def gradient(f: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Both first derivatives ``(f_x, f_y)`` from a single forward transform."""
    return derivatives(f)[:2]


def integrate(f: ScalarField) -> float:
    """Trapezoidal (= spectrally exact) integral over the periodic domain."""
    return float(f.values.sum() * f.grid.cell_area)


def dealias_solve(rhs: ScalarField, a: float) -> np.ndarray:
    """Solve ``(I - a * laplacian) u = rhs`` on the modes the grid's 2/3-rule
    mask keeps, as a new array; ``a`` must be nonnegative."""
    if a < 0.0:
        raise ValueError(f"helmholtz coefficient must be >= 0, got {a}")
    return _dealias_solve(rhs.grid, rhs.values, a).copy()


def total_energy(model: EnergyModel, psi: np.ndarray, cache: GeometryCache) -> float:
    """Total surface energy: integral of f(psi) with the area weight, taken
    at the clamped density samples ``psi``."""
    return surface_integral(model.derivatives(model.clamp(psi)[0])[0], cache)


def area_element(cache: GeometryCache) -> np.ndarray:
    """Area element ``sqrt(|g|)``."""
    return np.sqrt(cache.g_det)


def mean_curvature(cache: GeometryCache) -> np.ndarray:
    """Mean curvature ``H = sqrt(|g|) * hfrak``."""
    return area_element(cache) * cache.hfrak


def unit_normal(cache: GeometryCache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upward unit normal ``(-h_x, -h_y, 1) / sqrt(|g|)``."""
    sqrt_g = area_element(cache)
    return -cache.hx / sqrt_g, -cache.hy / sqrt_g, 1.0 / sqrt_g


def tangential_divergence(vx_x, vx_y, vy_x, vy_y, hx, hy, g):
    """Surface divergence of the tangent field with flat components ``v``,
    from their flat gradients: ``vx_x + vy_y - dh.Dv.dh / |g|``."""
    quad = hx * vx_x * hx + hx * vy_x * hy + hy * vx_y * hx + hy * vy_y * hy
    return vx_x + vy_y - quad / g


def _velocity_gradients(grid: Grid, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(vx_x, vx_y, vy_x, vy_y)``."""
    return tuple(d for c in v for d in gradient(ScalarField(grid, c)))


def laplace_beltrami(f: np.ndarray, cache: GeometryCache) -> np.ndarray:
    """Surface Laplacian of the scalar samples ``f`` on the cached surface."""
    fx, fy, fxx, fxy, fyy = derivatives(ScalarField(cache.grid, f))
    hx, hy = cache.hx, cache.hy
    trace = hessian_trace(fxx, fxy, fyy, hx, hy, cache.g_det)
    return trace - (fx * hx + fy * hy) * cache.hfrak


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
    conserved.  It is ``dtpsi`` minus the rate
    :func:`gradflow.geometry.truesdell_solve` gives for a vanishing
    Truesdell rate.
    """
    px, py = gradient(ScalarField(cache.grid, psi))
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
