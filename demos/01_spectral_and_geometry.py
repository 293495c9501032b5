"""Tour of the spectral calculus and the curved-surface operators.

Builds a doubly periodic grid, differentiates a trig polynomial exactly,
then assembles the geometry of a wavy graph surface and checks two exact
identities numerically: the surface area exceeds the flat area, and the
squared slope satisfies |grad h|^2 = (g - 1)/g pointwise.

Run:  python3 demos/01_spectral_and_geometry.py
"""

import numpy as np

from gradflow import (
    Grid,
    build_cache,
    covariant_norm_sq,
    derivatives,
    surface_integral,
)
from gradflow.geometry import hessian_trace

grid = Grid(64, 64)
print(f"grid: {grid.nx} x {grid.ny}, domain {grid.lx:.4f} x {grid.ly:.4f}")

# -- spectral derivatives are exact for resolved modes ----------------------
f = grid.from_function(lambda x, y: np.sin(3 * x) * np.cos(2 * y))
fx = derivatives(f)[0]
exact = grid.from_function(lambda x, y: 3 * np.cos(3 * x) * np.cos(2 * y))
print(f"max |d/dx sin(3x)cos(2y) - exact| = {np.abs(fx - exact.values).max():.3e}")

# -- curved-surface calculus ------------------------------------------------
h = grid.from_function(lambda x, y: 0.5 * np.sin(x) * np.sin(y))
cache = build_cache(h)

flat_area = grid.lx * grid.ly
area = surface_integral(grid.constant(1.0).values, cache)
print(f"flat area = {flat_area:.6f}, surface area = {area:.6f} (larger, as it must be)")

hx, hy = derivatives(h)[:2]
identity = (cache.g_det - 1.0) / cache.g_det
covariant = covariant_norm_sq(np.stack((hx, hy)), cache)
print(f"max |‖grad h‖^2 - (g-1)/g| = {np.abs(covariant - identity).max():.3e}")

# -- surface Laplacian reduces to the plain Laplacian on a flat surface -----
# On a flat surface the slope term of Laplace-Beltrami vanishes, leaving the
# metric trace of the Hessian.
flat = build_cache(grid.zeros())
_, _, fxx, fxy, fyy = derivatives(f)
lb = hessian_trace(fxx, fxy, fyy, flat.hx, flat.hy, flat.g_det)
plain = grid.from_function(lambda x, y: -13.0 * np.sin(3 * x) * np.cos(2 * y))
print(f"flat-surface Laplace-Beltrami error = {np.abs(lb - plain.values).max():.3e}")

# -- mean curvature of the wavy surface -------------------------------------
# H = sqrt(|g|) * hfrak, from the cache's metric and curvature density.
mean_curv = np.sqrt(cache.g_det) * cache.hfrak
print(
    "mean curvature range on the wavy surface: "
    f"[{mean_curv.min():+.4f}, {mean_curv.max():+.4f}]"
)
