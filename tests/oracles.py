"""Independent oracles for the verification suite.

Everything here is deliberately built *without* the package's spectral
machinery: derivatives come from 4th-order centered finite differences on
the periodic grid (``np.roll`` stencils), and the geometric quantities are
assembled from their closed-form expressions in plain numpy.  Comparing
the package's spectrally differentiated operators against these oracles on
a grid-refinement ladder gives an end-to-end check with a known 4th-order
error signature.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# 4th-order periodic finite differences (axis 0 = x, axis 1 = y)


def d1(values: np.ndarray, axis: int, delta: float) -> np.ndarray:
    """4th-order centered first derivative on a periodic axis."""
    p1 = np.roll(values, -1, axis)
    p2 = np.roll(values, -2, axis)
    m1 = np.roll(values, 1, axis)
    m2 = np.roll(values, 2, axis)
    return (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * delta)


def d2(values: np.ndarray, axis: int, delta: float) -> np.ndarray:
    """4th-order centered second derivative on a periodic axis."""
    p1 = np.roll(values, -1, axis)
    p2 = np.roll(values, -2, axis)
    m1 = np.roll(values, 1, axis)
    m2 = np.roll(values, 2, axis)
    return (-p2 + 16.0 * p1 - 30.0 * values + 16.0 * m1 - m2) / (12.0 * delta**2)


def d_cross(values: np.ndarray, dx: float, dy: float) -> np.ndarray:
    return d1(d1(values, 0, dx), 1, dy)


# ---------------------------------------------------------------------------
# Height-surface geometry assembled from finite differences


class FdGeometry:
    """All height-surface quantities of one h-sample array, via FD stencils."""

    def __init__(self, h: np.ndarray, dx: float, dy: float):
        self.dx, self.dy = dx, dy
        self.h = h
        self.hx = d1(h, 0, dx)
        self.hy = d1(h, 1, dy)
        self.hxx = d2(h, 0, dx)
        self.hyy = d2(h, 1, dy)
        self.hxy = d_cross(h, dx, dy)
        self.g = 1.0 + self.hx**2 + self.hy**2
        self.sqrt_g = np.sqrt(self.g)
        quad = (
            self.hx * self.hx * self.hxx
            + 2.0 * self.hx * self.hy * self.hxy
            + self.hy * self.hy * self.hyy
        )
        self.hfrak = (self.hxx + self.hyy - quad / self.g) / self.g
        self.mean_curv = self.sqrt_g * self.hfrak
        self.normal = (-self.hx / self.sqrt_g, -self.hy / self.sqrt_g, 1.0 / self.sqrt_g)

    def grad(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return d1(f, 0, self.dx), d1(f, 1, self.dy)


def fd_hessian_trace(f: np.ndarray, geo: FdGeometry) -> np.ndarray:
    """Metric trace of the flat Hessian of ``f``, ``fxx + fyy - dh.D2f.dh / |g|``."""
    fxx = d2(f, 0, geo.dx)
    fyy = d2(f, 1, geo.dy)
    fxy = d_cross(f, geo.dx, geo.dy)
    quad = (
        geo.hx * geo.hx * fxx
        + 2.0 * geo.hx * geo.hy * fxy
        + geo.hy * geo.hy * fyy
    )
    return fxx + fyy - quad / geo.g


def fd_laplace_beltrami(f: np.ndarray, geo: FdGeometry) -> np.ndarray:
    fx, fy = geo.grad(f)
    f_dh = fx * geo.hx + fy * geo.hy
    return fd_hessian_trace(f, geo) - f_dh * geo.hfrak


def fd_covariant_grad_sq(f: np.ndarray, geo: FdGeometry) -> np.ndarray:
    fx, fy = geo.grad(f)
    f_dh = fx * geo.hx + fy * geo.hy
    return fx * fx + fy * fy - f_dh * f_dh / geo.g


def fd_covariant_norm_sq(vx: np.ndarray, vy: np.ndarray, geo: FdGeometry) -> np.ndarray:
    v_dh = vx * geo.hx + vy * geo.hy
    return vx * vx + vy * vy - v_dh * v_dh / geo.g


def fd_div_comp_material(
    vx: np.ndarray, vy: np.ndarray, dth: np.ndarray, geo: FdGeometry
) -> np.ndarray:
    vx_x, vx_y = geo.grad(vx)
    vy_x, vy_y = geo.grad(vy)
    quad = (
        geo.hx * vx_x * geo.hx
        + geo.hx * vy_x * geo.hy
        + geo.hy * vx_y * geo.hx
        + geo.hy * vy_y * geo.hy
    )
    v_dh = vx * geo.hx + vy * geo.hy
    return vx_x + vy_y - quad / geo.g - (dth + v_dh) * geo.hfrak


def fd_material_derivative(
    psi: np.ndarray,
    dtpsi: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
    dth: np.ndarray,
    geo: FdGeometry,
) -> np.ndarray:
    px, py = geo.grad(psi)
    p_dh = px * geo.hx + py * geo.hy
    v_dh = vx * geo.hx + vy * geo.hy
    return dtpsi + vx * px + vy * py - (p_dh / geo.g) * (dth + v_dh)


def fd_truesdell_rate(
    psi: np.ndarray,
    dtpsi: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
    dth: np.ndarray,
    geo: FdGeometry,
) -> np.ndarray:
    return fd_material_derivative(psi, dtpsi, vx, vy, dth, geo) + psi * fd_div_comp_material(
        vx, vy, dth, geo
    )


def fd_surface_integral(f: np.ndarray, geo: FdGeometry, lx: float, ly: float) -> float:
    nx, ny = f.shape
    return float(np.sum(f * geo.sqrt_g)) * (lx * ly) / (nx * ny)


def fd_flat_diffusion(
    psi: np.ndarray,
    fpp: np.ndarray,
    fppp: np.ndarray,
    dx: float,
    dy: float,
    m_psi: float,
) -> np.ndarray:
    """Flat static-surface density equation: (f'' lap psi + f''' |grad psi|^2)/m."""
    px = d1(psi, 0, dx)
    py = d1(psi, 1, dy)
    lap = d2(psi, 0, dx) + d2(psi, 1, dy)
    return (fpp * lap + fppp * (px * px + py * py)) / m_psi


def fourier_interpolate(values: np.ndarray, n: int) -> np.ndarray:
    """Band-limited interpolation of periodic samples onto the ``n x n`` grid
    of the same domain (``n`` above each sample count), by zero-padding
    the spectrum; a Nyquist mode is split evenly between ``+-n/2``."""
    spec = np.fft.fft2(values)
    for axis, m in enumerate(values.shape):
        spec = np.moveaxis(spec, axis, 0)
        padded = np.zeros((n,) + spec.shape[1:], complex)
        half = m // 2
        padded[:half] = spec[:half]
        padded[n - half + 1 :] = spec[half + 1 :]
        padded[half] = padded[n - half] = 0.5 * spec[half]
        spec = np.moveaxis(padded, 0, axis)
    return np.fft.ifft2(spec).real * (n * n / values.size)


# ---------------------------------------------------------------------------
# Fixed band-limited analytic fields for refinement ladders.
#
# Highest mode is 3 per axis (products inside the assembled formulas stay
# pointwise), so even a 16x16 grid represents every field exactly and the
# spectral side of a comparison carries no truncation error of its own.


def h_fn(x, y):
    return (
        0.4 * np.sin(x) * np.cos(y)
        + 0.25 * np.cos(2.0 * x + 0.7) * np.sin(y + 0.3)
        + 0.15 * np.sin(3.0 * x + 1.1) * np.cos(2.0 * y + 0.5)
    )


def f_fn(x, y):
    return 0.5 + 0.3 * np.sin(2.0 * x + 0.4) * np.cos(y) + 0.2 * np.cos(x) * np.sin(3.0 * y + 0.9)


def psi_fn(x, y):
    return 0.45 + 0.15 * np.sin(x + 0.2) * np.sin(2.0 * y) + 0.1 * np.cos(2.0 * x + 1.3) * np.cos(y)


def dtpsi_fn(x, y):
    return 0.2 * np.cos(2.0 * x) * np.sin(y + 0.6) - 0.1 * np.sin(x + 1.0) * np.cos(3.0 * y)


def vx_fn(x, y):
    return 0.3 * np.cos(x + 0.5) * np.sin(y) + 0.1 * np.sin(2.0 * x) * np.cos(2.0 * y + 0.2)


def vy_fn(x, y):
    return -0.25 * np.sin(x) * np.cos(2.0 * y + 0.8) + 0.15 * np.cos(3.0 * x + 0.3) * np.sin(y)


def dth_fn(x, y):
    return 0.35 * np.cos(2.0 * x + 1.4) * np.cos(y + 0.1) - 0.2 * np.sin(x) * np.sin(2.0 * y)


def observed_orders(errors: list[float]) -> list[float]:
    """Successive log2 convergence rates of a halving-refinement ladder."""
    return [
        np.log2(a / b) if a > 0.0 and b > 0.0 else float("inf")
        for a, b in zip(errors, errors[1:])
    ]
