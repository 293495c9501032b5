"""Height-surface geometry: curvature, covariant operators, and identities."""

import math

import numpy as np
import pytest

import oracles
from gradflow import (
    Grid,
    ScalarField,
    VectorField2,
    build_cache,
    covariant_norm_sq,
    div_comp_material,
    gradient,
    laplace_beltrami,
    reconstruct_velocity,
    surface_integral,
    truesdell_rate,
)

TWO_PI = 2.0 * math.pi


def grad_sq(f, cache):
    return covariant_norm_sq(VectorField2(*gradient(f)), cache)


def curved_cache(n=64):
    g = Grid(n, n)
    h = g.from_function(oracles.h_fn)
    return g, build_cache(h)


# ---------------------------------------------------------------------------
# Cache construction


def test_flat_surface_cache():
    g = Grid(32, 32)
    cache = build_cache(g.zeros())
    assert np.allclose(cache.g_det.values, 1.0, atol=1e-14)
    assert np.allclose(cache.sqrt_g.values, 1.0, atol=1e-14)
    assert np.abs(cache.hfrak.values).max() < 1e-13
    assert np.abs(cache.mean_curv.values).max() < 1e-13
    nx_, ny_, nz_ = cache.normal
    assert np.abs(nx_.values).max() < 1e-13
    assert np.abs(ny_.values).max() < 1e-13
    assert np.allclose(nz_.values, 1.0, atol=1e-14)


def test_curvature_density_at_extremum():
    # h = sin 2x sin 2y has a critical point at (pi/4, pi/4) where the
    # metric is flat and the curvature density equals the plain Laplacian -8.
    g = Grid(16, 16)
    cache = build_cache(g.from_function(lambda x, y: np.sin(2 * x) * np.sin(2 * y)))
    i = 2  # x = y = 2 * (2pi/16) = pi/4
    assert abs(cache.g_det.values[i, i] - 1.0) < 1e-12
    assert abs(cache.hfrak.values[i, i] + 8.0) < 1e-10


def test_metric_determinant_bounds_and_unit_normal():
    _, cache = curved_cache()
    assert cache.g_det.values.min() >= 1.0
    nx_, ny_, nz_ = (c.values for c in cache.normal)
    norm = np.sqrt(nx_**2 + ny_**2 + nz_**2)
    assert np.abs(norm - 1.0).max() < 1e-12


def test_mean_curvature_consistent_with_laplace_beltrami():
    g, cache = curved_cache()
    lb_h = laplace_beltrami(ScalarField(g, cache.h.values), cache)
    lhs = cache.mean_curv.values
    rhs = cache.sqrt_g.values * lb_h.values
    assert np.abs(lhs - rhs).max() / np.abs(lhs).max() < 1e-10


def test_metric_even_and_gradient_odd_under_h_negation():
    g = Grid(32, 32)
    h = g.from_function(oracles.h_fn)
    plus = build_cache(h)
    minus = build_cache(ScalarField(g, -h.values))
    assert np.allclose(plus.g_det.values, minus.g_det.values, atol=1e-13)
    assert np.allclose(plus.dh.x.values, -minus.dh.x.values, atol=1e-13)
    assert np.allclose(plus.dh.y.values, -minus.dh.y.values, atol=1e-13)


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
    assert np.abs(laplace_beltrami(f, cache).values + f.values).max() < 1e-12


def test_flat_gradient_norm():
    g = Grid(32, 32)
    cache = build_cache(g.zeros())
    f = g.from_function(lambda x, y: np.sin(x) + 0.0 * y)
    expected = g.from_function(lambda x, y: np.cos(x) ** 2 + 0.0 * y)
    assert np.abs(grad_sq(f, cache).values - expected.values).max() < 1e-12
    assert np.abs(grad_sq(g.constant(3.0), cache).values).max() < 1e-13


def test_flat_divergence_reduction():
    g = Grid(32, 32)
    cache = build_cache(g.zeros())
    v = VectorField2(
        g.from_function(lambda x, y: np.sin(x) * np.cos(y)),
        g.from_function(lambda x, y: np.cos(x) * np.sin(2 * y)),
    )
    div = div_comp_material(v, g.zeros(), cache)
    expected = g.from_function(
        lambda x, y: np.cos(x) * np.cos(y) + 2.0 * np.cos(x) * np.cos(2 * y)
    )
    assert np.abs(div.values - expected.values).max() < 1e-12
    zero = div_comp_material(VectorField2(g.zeros(), g.zeros()), g.zeros(), cache)
    assert np.abs(zero.values).max() < 1e-13


# ---------------------------------------------------------------------------
# Covariant operators: curved-surface identities


def test_gradient_norm_of_height_identity():
    # |grad h|^2 = (|g| - 1)/|g|
    g, cache = curved_cache()
    h = ScalarField(g, cache.h.values)
    lhs = grad_sq(h, cache).values
    rhs = (cache.g_det.values - 1.0) / cache.g_det.values
    assert np.abs(lhs - rhs).max() < 1e-12


def test_gradient_norm_nonnegative(smooth_field):
    g, cache = curved_cache()
    f = smooth_field(g)
    assert grad_sq(f, cache).values.min() > -1e-13


def test_truesdell_rate_identity_chain(smooth_field):
    # Truesdell rate == material derivative + psi * material divergence, with
    # the material derivative dtpsi + v.dpsi - (dpsi.dh / |g|)(dth + v.dh)
    g, cache = curved_cache()
    psi = smooth_field(g, amplitude=0.3, offset=0.5)
    dtpsi = smooth_field(g, amplitude=0.4)
    v = VectorField2(smooth_field(g, amplitude=0.5), smooth_field(g, amplitude=0.5))
    dth = smooth_field(g, amplitude=0.6)
    combined = truesdell_rate(psi, dtpsi, v, dth, cache).values
    px, py = (c.values for c in gradient(psi))
    hx, hy = cache.dh.x.values, cache.dh.y.values
    vx, vy = v.x.values, v.y.values
    material = (
        dtpsi.values
        + vx * px
        + vy * py
        - (px * hx + py * hy) / cache.g_det.values * (dth.values + vx * hx + vy * hy)
    )
    split = material + psi.values * div_comp_material(v, dth, cache).values
    scale = np.abs(combined).max()
    assert np.abs(combined - split).max() / scale < 1e-10


def test_static_flat_truesdell_rate_reduces_to_time_derivative(smooth_field):
    g = Grid(32, 32)
    cache = build_cache(g.zeros())
    psi = smooth_field(g, amplitude=0.3, offset=0.5)
    dtpsi = smooth_field(g, amplitude=0.4)
    v0 = VectorField2(g.zeros(), g.zeros())
    rate = truesdell_rate(psi, dtpsi, v0, g.zeros(), cache)
    assert np.allclose(rate.values, dtpsi.values, atol=1e-13)


def test_pure_dilution_term(smooth_field):
    # flat static surface, no gradients: rate = psi * div v
    g = Grid(32, 32)
    cache = build_cache(g.zeros())
    psi = g.constant(0.7)
    v = VectorField2(
        g.from_function(lambda x, y: np.sin(x) + 0.0 * y),
        g.zeros(),
    )
    rate = truesdell_rate(psi, g.zeros(), v, g.zeros(), cache)
    expected = g.from_function(lambda x, y: 0.7 * np.cos(x) + 0.0 * y)
    assert np.allclose(rate.values, expected.values, atol=1e-12)


# ---------------------------------------------------------------------------
# Velocity reconstruction


def test_reconstruct_velocity_flat_normal_motion():
    g = Grid(32, 32)
    cache = build_cache(g.zeros())
    dth = g.from_function(lambda x, y: np.cos(x) * np.cos(y))
    vx, vy, vz = reconstruct_velocity(VectorField2(g.zeros(), g.zeros()), dth, cache)
    assert np.abs(vx.values).max() < 1e-13
    assert np.abs(vy.values).max() < 1e-13
    assert np.allclose(vz.values, dth.values, atol=1e-13)


def test_reconstruct_velocity_normal_projection(smooth_field):
    # V . normal = dth / sqrt(g) for any tangential component
    g, cache = curved_cache()
    v = VectorField2(smooth_field(g, amplitude=0.5), smooth_field(g, amplitude=0.5))
    dth = smooth_field(g, amplitude=0.7)
    vx, vy, vz = reconstruct_velocity(v, dth, cache)
    n1, n2, n3 = (c.values for c in cache.normal)
    projected = vx.values * n1 + vy.values * n2 + vz.values * n3
    expected = dth.values / cache.sqrt_g.values
    assert np.abs(projected - expected).max() < 1e-12


def test_covariant_norm_sq_matches_ambient_speed(smooth_field):
    # ||V||^2 of the material velocity equals the squared Euclidean norm of
    # the reconstructed ambient velocity.
    g, cache = curved_cache()
    v = VectorField2(smooth_field(g, amplitude=0.5), smooth_field(g, amplitude=0.5))
    dth = smooth_field(g, amplitude=0.7)
    vx, vy, vz = reconstruct_velocity(v, dth, cache)
    ambient_sq = vx.values**2 + vy.values**2 + vz.values**2
    covariant_sq = (
        covariant_norm_sq(v, cache).values + dth.values**2 / cache.g_det.values
    )
    assert np.abs(ambient_sq - covariant_sq).max() / ambient_sq.max() < 1e-11


# ---------------------------------------------------------------------------
# Quadrature on the surface


def test_flat_surface_area():
    g = Grid(32, 32)
    cache = build_cache(g.zeros())
    assert math.isclose(surface_integral(g.constant(1.0), cache), TWO_PI**2, rel_tol=1e-13)
    assert surface_integral(g.zeros(), cache) == 0.0


def test_curved_area_exceeds_flat_and_converges():
    areas = {}
    for n in (128, 256):
        g = Grid(n, n)
        cache = build_cache(g.from_function(lambda x, y: np.sin(2 * x) * np.sin(2 * y)))
        areas[n] = surface_integral(g.constant(1.0), cache)
    assert areas[128] > TWO_PI**2
    assert abs(areas[128] - areas[256]) / areas[256] < 1e-9
