"""Spectral grid: differentiation, dealiasing, quadrature, Helmholtz solves."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import gradflow
from gradflow import Grid, ScalarField, derivatives
from spectral_reference import dealias_solve, gradient, integrate

TWO_PI = 2.0 * math.pi


def grid16():
    return Grid(16, 16)


def grid64():
    return Grid(64, 64)


# ---------------------------------------------------------------------------
# Grid construction


def test_grid_rejects_odd_and_small_sizes():
    with pytest.raises(ValueError):
        Grid(15, 16)
    with pytest.raises(ValueError):
        Grid(16, 6)
    for nx, ny, message in (
        (16.0, 16, "nx must be an even integer >= 8, got 16.0"),
        (16, 16.0, "ny must be an even integer >= 8, got 16.0"),
        (True, 16, "nx must be an even integer >= 8, got True"),
        (16, np.float64(16), "ny must be an even integer >= 8, got 16.0"),
        ("16", 16, "nx must be an even integer >= 8, got 16"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Grid(nx, ny)
    assert Grid(np.int64(16), np.int32(8)).ky.shape == (1, 5)
    with pytest.raises(ValueError):
        Grid(16, 16, lx=0.0)
    with pytest.raises(ValueError):
        Grid(16, 16, ly=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            Grid(16, 16, lx=bad)


def test_wavenumbers_start_at_zero():
    g = grid16()
    assert g.kx[0, 0] == 0.0
    assert g.ky[0, 0] == 0.0


def test_dealias_mask_keeps_two_thirds():
    g = grid16()
    # cut at (2/3)*(16/2) = 5.33: modes up to 5 survive, 6 and 7 are removed
    x = g.x + 0.0 * g.y
    kept = gradient(ScalarField(g, dealias_solve(ScalarField(g, np.sin(5.0 * x)), 0.0)))[0]
    assert np.allclose(kept, 5.0 * np.cos(5.0 * x + 0.0 * g.y), atol=1e-12)
    for m in (6, 7):
        killed = dealias_solve(ScalarField(g, np.sin(m * x) + 0.0 * g.y), 0.0)
        assert np.abs(killed).max() < 1e-13


def test_dealias_leaves_low_mode_unchanged():
    g = grid16()
    f = g.from_function(lambda x, y: np.sin(x) + 0.0 * y)
    assert np.allclose(dealias_solve(f, 0.0), f.values, atol=1e-14)


# ---------------------------------------------------------------------------
# ScalarField mechanics


def test_field_shape_and_grid_checks():
    g = grid16()
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((8, 8)))


# ---------------------------------------------------------------------------
# Differentiation


def test_partial_of_single_mode():
    g = grid16()
    f = g.from_function(lambda x, y: np.sin(x) + 0.0 * y)
    df = gradient(f)[0]
    expected = g.from_function(lambda x, y: np.cos(x) + 0.0 * y)
    assert np.allclose(df, expected.values, atol=1e-13)
    assert np.abs(gradient(f)[1]).max() < 1e-13


def test_partial_of_constant_is_zero():
    g = grid16()
    assert np.abs(gradient(g.constant(4.2))[0]).max() < 1e-13


def test_partial_value_at_extremum():
    # d/dx [sin 2x sin 2y] = 2 cos 2x sin 2y vanishes at (pi/4, pi/4)
    g = grid16()
    f = g.from_function(lambda x, y: np.sin(2 * x) * np.sin(2 * y))
    df = gradient(f)[0]
    assert abs(df[2, 2]) < 1e-13  # x = y = 2*(2pi/16) = pi/4


def test_second_derivatives():
    g = grid16()
    f = g.from_function(lambda x, y: np.sin(x) + 0.0 * y)
    _, _, fxx, fxy, fyy = derivatives(f)
    assert np.allclose(fxx, -f.values, atol=1e-12)
    assert np.abs(fxy).max() < 1e-12
    assert np.abs(fyy).max() < 1e-12

    f2 = g.from_function(lambda x, y: np.sin(2 * x) * np.sin(2 * y))
    fxy2 = derivatives(f2)[3]
    expected = g.from_function(lambda x, y: 4.0 * np.cos(2 * x) * np.cos(2 * y))
    assert np.allclose(fxy2, expected.values, atol=1e-12)


def test_derivatives_bundle_of_a_trig_product():
    g = grid64()
    f = g.from_function(lambda x, y: np.sin(3 * x + 0.4) * np.cos(2 * y))
    expected = (
        lambda x, y: 3 * np.cos(3 * x + 0.4) * np.cos(2 * y),
        lambda x, y: -2 * np.sin(3 * x + 0.4) * np.sin(2 * y),
        lambda x, y: -9 * np.sin(3 * x + 0.4) * np.cos(2 * y),
        lambda x, y: -6 * np.cos(3 * x + 0.4) * np.sin(2 * y),
        lambda x, y: -4 * np.sin(3 * x + 0.4) * np.cos(2 * y),
    )
    for got, fn in zip(derivatives(f), expected):
        assert np.allclose(got, g.from_function(fn).values, atol=1e-12)


def _plain_transforms(f, a):
    """``irfft2(M * rfft2(f))`` for the derivative multipliers ``M``, and the
    masked Helmholtz solve of ``dealias_solve(f, a)``, with ``scipy.fft`` as
    the independent reference."""
    g = f.grid
    spec = scipy.fft.rfft2(f.values)
    kx, ky, one = g.kx, g.ky, np.ones((g.nx, g.ny // 2 + 1))
    m = np.stack((1j * kx * one, 1j * ky * one, -kx * kx * one, -kx * ky * one, -ky * ky * one))

    def inverse(s):
        return scipy.fft.irfft2(s, s=(g.nx, g.ny), axes=(-2, -1))

    # |k|^2 from the derivative wavenumbers, whose zeroed Nyquist modes the
    # mask removes anyway.
    solved = spec * g.dealias_mask
    solved /= 1.0 + a * (kx * kx + ky * ky)
    return (
        (derivatives(f), inverse(m * spec)),
        (gradient(f), inverse(m[:2] * spec)),
        ((dealias_solve(f, a),), inverse(solved)[None]),
    )


def test_derivative_helpers_equal_the_plain_transforms(rng):
    # The helpers write the spectral products into the grid's work buffer and
    # run each 2-D transform as two 1-D passes; for a power-of-two nx the
    # bytes must be those of scipy's 2-D transforms.
    g = Grid(32, 24, lx=3.0)
    f = ScalarField(g, rng.standard_normal((g.nx, g.ny)))
    for got, expected in _plain_transforms(f, 0.37):
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)


def test_transforms_of_other_even_sizes_agree_to_rounding(rng):
    # For nx not a power of two the inverse passes round their 1/nx scaling
    # in another place than a 2-D transform does.
    g = Grid(24, 32, ly=3.0)
    f = ScalarField(g, rng.standard_normal((g.nx, g.ny)))
    for got, expected in _plain_transforms(f, 0.37):
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            scale = np.abs(b).max()
            assert np.abs(a - b).max() <= 8 * np.finfo(float).eps * scale


def test_import_leaves_scipy_unloaded():
    # A fresh process, since this one has imported scipy for the references.
    src = str(Path(gradflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, gradflow; print(gradflow.get_fft_workers(), 'scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == ["1", "False"]


def test_derivative_outputs_survive_later_calls(rng):
    g = Grid(16, 16)
    f = ScalarField(g, rng.standard_normal((g.nx, g.ny)))
    f_before = f.values.copy()
    first = derivatives(f)
    first_grad = gradient(f)
    kept = [s.copy() for s in first + first_grad]
    assert np.array_equal(f.values, f_before)

    other = ScalarField(g, rng.standard_normal((g.nx, g.ny)))
    derivatives(other)
    gradient(other)
    assert all(np.array_equal(s, k) for s, k in zip(first + first_grad, kept))
    assert np.array_equal(f.values, f_before)


def test_resolved_mode_relative_accuracy():
    g = grid64()
    f = g.from_function(lambda x, y: np.sin(5 * x) * np.cos(7 * y))
    fx = gradient(f)[0]
    exact = g.from_function(lambda x, y: 5 * np.cos(5 * x) * np.cos(7 * y))
    denom = np.abs(exact.values).max()
    assert np.abs(fx - exact.values).max() / denom < 1e-12


def test_gradient_matches_partials(smooth_field):
    g = grid64()
    f = smooth_field(g)
    fx, fy = gradient(f)
    bundle = derivatives(f)
    assert np.allclose(fx, bundle[0], atol=1e-12)
    assert np.allclose(fy, bundle[1], atol=1e-12)


def test_partial_commutes_with_dealias(smooth_field):
    g = grid64()
    f = ScalarField(g, dealias_solve(smooth_field(g), 0.0))
    a = gradient(ScalarField(g, dealias_solve(f, 0.0)))[0]
    b = dealias_solve(ScalarField(g, gradient(f)[0]), 0.0)
    assert np.allclose(a, b, atol=1e-12)


def test_nonuniform_domain_lengths():
    g = Grid(32, 32, lx=4.0 * math.pi, ly=math.pi)
    f = g.from_function(lambda x, y: np.sin(0.5 * x) * np.cos(2.0 * y))
    fx = gradient(f)[0]
    exact = g.from_function(lambda x, y: 0.5 * np.cos(0.5 * x) * np.cos(2.0 * y))
    assert np.allclose(fx, exact.values, atol=1e-12)


# ---------------------------------------------------------------------------
# Quadrature


def test_integrate_constant():
    assert math.isclose(integrate(grid16().constant(1.0)), TWO_PI**2, rel_tol=1e-14)


def test_integrate_single_mode_is_zero():
    g = grid16()
    f = g.from_function(lambda x, y: np.sin(x) + 0.0 * y)
    assert abs(integrate(f)) < 1e-13


def test_integrate_product_of_squares():
    g = grid16()
    f = g.from_function(lambda x, y: np.sin(2 * x) ** 2 * np.sin(2 * y) ** 2)
    assert math.isclose(integrate(f), math.pi**2, rel_tol=1e-13)


def test_integrate_of_derivative_vanishes(smooth_field):
    g = grid64()
    f = smooth_field(g)
    bound = 1e-10 * np.abs(f.values).max() * g.lx * g.ly
    for slope in gradient(f):
        assert abs(integrate(ScalarField(g, slope))) < bound


# ---------------------------------------------------------------------------
# Helmholtz solve


def test_helmholtz_rejects_negative_coefficient():
    with pytest.raises(ValueError):
        dealias_solve(grid16().constant(1.0), -0.1)


def test_helmholtz_zero_coefficient_is_identity(smooth_field):
    g = grid64()
    f = smooth_field(g)
    assert np.allclose(dealias_solve(f, 0.0), f.values, atol=1e-13)
    # A negligible coefficient leaves every denominator exactly 1.0, so the
    # damped IMEX increment equals the explicit one to the bit.
    assert np.array_equal(dealias_solve(f, 1e-300), dealias_solve(f, 0.0))


def test_helmholtz_single_modes():
    g = grid16()
    f = g.from_function(lambda x, y: np.sin(x) + 0.0 * y)
    u = dealias_solve(f, 1.0)
    assert np.allclose(u, f.values / 2.0, atol=1e-13)

    f2 = g.from_function(lambda x, y: np.sin(2 * x) * np.sin(2 * y))
    u2 = dealias_solve(f2, 0.5)
    assert np.allclose(u2, f2.values / 5.0, atol=1e-13)


def test_helmholtz_mean_mode_passthrough():
    g = grid16()
    u = dealias_solve(g.constant(3.0), 7.0)
    assert np.allclose(u, 3.0, atol=1e-13)


def test_helmholtz_inverts_operator(smooth_field):
    g = grid64()
    u = ScalarField(g, dealias_solve(smooth_field(g), 0.0))
    a = 0.7
    _, _, uxx, _, uyy = derivatives(u)
    rhs = ScalarField(g, u.values - a * (uxx + uyy))
    back = dealias_solve(rhs, a)
    denom = np.abs(u.values).max()
    assert np.abs(back - u.values).max() / denom < 1e-12
