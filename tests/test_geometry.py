"""Height-surface geometry: curvature, covariant operators, and identities.

The operators no run calls (surface Laplacian, material divergence,
Truesdell rate, velocity reconstruction) are the reference compositions of
``spectral_reference``, on the package's cache and kernels."""

import math

import numpy as np
import pytest

import oracles
from gradflow import (
    Grid,
    ScalarField,
    build_cache,
    covariant_norm_sq,
    surface_integral,
)
from spectral_reference import (
    area_element,
    div_comp_material,
    gradient,
    laplace_beltrami,
    mean_curvature,
    reconstruct_velocity,
    truesdell_rate,
    unit_normal,
)

TWO_PI = 2.0 * math.pi


def grad_sq(f, cache):
    return covariant_norm_sq(np.stack(gradient(f)), cache)


def vector(*components):
    """The ``(2, nx, ny)`` stack of two fields' samples."""
    return np.stack([c.values for c in components])


def curved_cache(n=64):
    g = Grid(n, n)
    h = g.from_function(oracles.h_fn)
    return g, build_cache(h)


# ---------------------------------------------------------------------------
# Cache construction


def test_flat_surface_cache():
    g = Grid(32, 32)
    cache = build_cache(g.zeros())
    assert np.allclose(cache.g_det, 1.0, atol=1e-14)
    assert np.allclose(area_element(cache), 1.0, atol=1e-14)
    assert np.abs(cache.hfrak).max() < 1e-13
    assert np.abs(mean_curvature(cache)).max() < 1e-13
    nx_, ny_, nz_ = unit_normal(cache)
    assert np.abs(nx_).max() < 1e-13
    assert np.abs(ny_).max() < 1e-13
    assert np.allclose(nz_, 1.0, atol=1e-14)


def test_curvature_density_at_extremum():
    # h = sin 2x sin 2y has a critical point at (pi/4, pi/4) where the
    # metric is flat and the curvature density equals the plain Laplacian -8.
    g = Grid(16, 16)
    cache = build_cache(g.from_function(lambda x, y: np.sin(2 * x) * np.sin(2 * y)))
    i = 2  # x = y = 2 * (2pi/16) = pi/4
    assert abs(cache.g_det[i, i] - 1.0) < 1e-12
    assert abs(cache.hfrak[i, i] + 8.0) < 1e-10


def test_metric_determinant_bounds_and_unit_normal():
    _, cache = curved_cache()
    assert cache.g_det.min() >= 1.0
    nx_, ny_, nz_ = unit_normal(cache)
    norm = np.sqrt(nx_**2 + ny_**2 + nz_**2)
    assert np.abs(norm - 1.0).max() < 1e-12


def test_mean_curvature_consistent_with_laplace_beltrami():
    g, cache = curved_cache()
    lb_h = laplace_beltrami(g.from_function(oracles.h_fn).values, cache)
    lhs = mean_curvature(cache)
    rhs = area_element(cache) * lb_h
    assert np.abs(lhs - rhs).max() / np.abs(lhs).max() < 1e-10


def test_metric_even_and_gradient_odd_under_h_negation():
    g = Grid(32, 32)
    h = g.from_function(oracles.h_fn)
    plus = build_cache(h)
    minus = build_cache(g.from_function(lambda x, y: -oracles.h_fn(x, y)))
    assert np.allclose(plus.g_det, minus.g_det, atol=1e-13)
    assert np.allclose(plus.hx, -minus.hx, atol=1e-13)
    assert np.allclose(plus.hy, -minus.hy, atol=1e-13)


def test_cache_rejects_nonfinite_height():
    g = Grid(16, 16)
    values = np.zeros((16, 16))
    values[0, 0] = np.inf
    with pytest.raises(FloatingPointError):
        build_cache(ScalarField(g, values))


# ---------------------------------------------------------------------------
# Covariant operators: flat reductions


def test_flat_laplace_beltrami_is_flat_laplacian():
    g = Grid(32, 32)
    cache = build_cache(g.zeros())
    f = g.from_function(lambda x, y: np.sin(x) + 0.0 * y)
    assert np.abs(laplace_beltrami(f.values, cache) + f.values).max() < 1e-12


def test_flat_gradient_norm():
    g = Grid(32, 32)
    cache = build_cache(g.zeros())
    f = g.from_function(lambda x, y: np.sin(x) + 0.0 * y)
    expected = g.from_function(lambda x, y: np.cos(x) ** 2 + 0.0 * y)
    assert np.abs(grad_sq(f, cache) - expected.values).max() < 1e-12
    assert np.abs(grad_sq(g.constant(3.0), cache)).max() < 1e-13


def test_flat_divergence_reduction():
    g = Grid(32, 32)
    cache = build_cache(g.zeros())
    v = vector(
        g.from_function(lambda x, y: np.sin(x) * np.cos(y)),
        g.from_function(lambda x, y: np.cos(x) * np.sin(2 * y)),
    )
    zeros = g.zeros().values
    div = div_comp_material(v, zeros, cache)
    expected = g.from_function(
        lambda x, y: np.cos(x) * np.cos(y) + 2.0 * np.cos(x) * np.cos(2 * y)
    )
    assert np.abs(div - expected.values).max() < 1e-12
    zero = div_comp_material(vector(g.zeros(), g.zeros()), zeros, cache)
    assert np.abs(zero).max() < 1e-13


# ---------------------------------------------------------------------------
# Covariant operators: curved-surface identities


def test_gradient_norm_of_height_identity():
    # |grad h|^2 = (|g| - 1)/|g|
    g, cache = curved_cache()
    h = g.from_function(oracles.h_fn)
    lhs = grad_sq(h, cache)
    rhs = (cache.g_det - 1.0) / cache.g_det
    assert np.abs(lhs - rhs).max() < 1e-12


def test_gradient_norm_nonnegative(smooth_field):
    g, cache = curved_cache()
    f = smooth_field(g)
    assert grad_sq(f, cache).min() > -1e-13


def test_truesdell_rate_identity_chain(smooth_field):
    # Truesdell rate == material derivative + psi * material divergence, with
    # the material derivative dtpsi + v.dpsi - (dpsi.dh / |g|)(dth + v.dh)
    g, cache = curved_cache()
    psi = smooth_field(g, amplitude=0.3, offset=0.5)
    dtpsi = smooth_field(g, amplitude=0.4)
    v = vector(smooth_field(g, amplitude=0.5), smooth_field(g, amplitude=0.5))
    dth = smooth_field(g, amplitude=0.6).values
    combined = truesdell_rate(psi.values, dtpsi.values, v, dth, cache)
    px, py = gradient(psi)
    hx, hy = cache.hx, cache.hy
    vx, vy = v
    material = (
        dtpsi.values
        + vx * px
        + vy * py
        - (px * hx + py * hy) / cache.g_det * (dth + vx * hx + vy * hy)
    )
    split = material + psi.values * div_comp_material(v, dth, cache)
    scale = np.abs(combined).max()
    assert np.abs(combined - split).max() / scale < 1e-10


def test_static_flat_truesdell_rate_reduces_to_time_derivative(smooth_field):
    g = Grid(32, 32)
    cache = build_cache(g.zeros())
    psi = smooth_field(g, amplitude=0.3, offset=0.5)
    dtpsi = smooth_field(g, amplitude=0.4)
    v0 = vector(g.zeros(), g.zeros())
    rate = truesdell_rate(psi.values, dtpsi.values, v0, g.zeros().values, cache)
    assert np.allclose(rate, dtpsi.values, atol=1e-13)


def test_pure_dilution_term(smooth_field):
    # flat static surface, no gradients: rate = psi * div v
    g = Grid(32, 32)
    cache = build_cache(g.zeros())
    psi = g.constant(0.7)
    v = vector(
        g.from_function(lambda x, y: np.sin(x) + 0.0 * y),
        g.zeros(),
    )
    zeros = g.zeros().values
    rate = truesdell_rate(psi.values, zeros, v, zeros, cache)
    expected = g.from_function(lambda x, y: 0.7 * np.cos(x) + 0.0 * y)
    assert np.allclose(rate, expected.values, atol=1e-12)


# ---------------------------------------------------------------------------
# Velocity reconstruction


def test_reconstruct_velocity_flat_normal_motion():
    g = Grid(32, 32)
    cache = build_cache(g.zeros())
    dth = g.from_function(lambda x, y: np.cos(x) * np.cos(y)).values
    vx, vy, vz = reconstruct_velocity(vector(g.zeros(), g.zeros()), dth, cache)
    assert np.abs(vx).max() < 1e-13
    assert np.abs(vy).max() < 1e-13
    assert np.allclose(vz, dth, atol=1e-13)


def test_reconstruct_velocity_normal_projection(smooth_field):
    # V . normal = dth / sqrt(g) for any tangential component
    g, cache = curved_cache()
    v = vector(smooth_field(g, amplitude=0.5), smooth_field(g, amplitude=0.5))
    dth = smooth_field(g, amplitude=0.7).values
    vx, vy, vz = reconstruct_velocity(v, dth, cache)
    n1, n2, n3 = unit_normal(cache)
    projected = vx * n1 + vy * n2 + vz * n3
    expected = dth / area_element(cache)
    assert np.abs(projected - expected).max() < 1e-12


def test_covariant_norm_sq_matches_ambient_speed(smooth_field):
    # ||V||^2 of the material velocity equals the squared Euclidean norm of
    # the reconstructed ambient velocity.
    g, cache = curved_cache()
    v = vector(smooth_field(g, amplitude=0.5), smooth_field(g, amplitude=0.5))
    dth = smooth_field(g, amplitude=0.7).values
    vx, vy, vz = reconstruct_velocity(v, dth, cache)
    ambient_sq = vx**2 + vy**2 + vz**2
    covariant_sq = covariant_norm_sq(v, cache) + dth**2 / cache.g_det
    assert np.abs(ambient_sq - covariant_sq).max() / ambient_sq.max() < 1e-11


# ---------------------------------------------------------------------------
# Quadrature on the surface


def test_flat_surface_area():
    g = Grid(32, 32)
    cache = build_cache(g.zeros())
    assert math.isclose(
        surface_integral(g.constant(1.0).values, cache), TWO_PI**2, rel_tol=1e-13
    )
    assert surface_integral(g.zeros().values, cache) == 0.0


def test_curved_area_exceeds_flat_and_converges():
    areas = {}
    for n in (128, 256):
        g = Grid(n, n)
        cache = build_cache(g.from_function(lambda x, y: np.sin(2 * x) * np.sin(2 * y)))
        areas[n] = surface_integral(g.constant(1.0).values, cache)
    assert areas[128] > TWO_PI**2
    assert abs(areas[128] - areas[256]) / areas[256] < 1e-9
