"""Energy-density presets, surface tension, totals, and the density variation."""

import math

import numpy as np
import pytest

from gradflow import (
    CLAMP_EPS,
    Constant,
    FloryHuggins,
    FlowState,
    Grid,
    Linear,
    Mobilities,
    ModelVariant,
    Quadratic,
    build_cache,
    evaluate,
    surface_integral,
)
from spectral_reference import total_energy

ALL_PRESETS = [
    Constant(1.3),
    Linear(-0.7),
    Quadratic(2.0),
    FloryHuggins(1.0, 0.75, 0.0),
    FloryHuggins(0.5, 0.6, 2.5),
]


def psi_field(grid):
    return grid.from_function(
        lambda x, y: 0.4 + 0.15 * np.sin(x) * np.sin(y) + 0.1 * np.cos(2 * x)
    )


# ---------------------------------------------------------------------------
# Parameter validation


def test_parameter_validation():
    with pytest.raises(ValueError):
        Constant(0.0)
    with pytest.raises(ValueError):
        Constant(-1.0)
    with pytest.raises(ValueError):
        Quadratic(0.0)
    with pytest.raises(ValueError):
        FloryHuggins(0.0, 0.75, 0.0)
    with pytest.raises(ValueError):
        FloryHuggins(1.0, -0.1, 0.0)
    # linear slope and interaction strength may take any sign
    Linear(-3.0)
    FloryHuggins(1.0, 0.75, -5.0)
    FloryHuggins(1.0, 0.75, 10.0)


# ---------------------------------------------------------------------------
# Pointwise values


def test_constant_preset_orders():
    psi = np.array([0.1, 0.9])
    model = Constant(2.5)
    assert np.allclose(model.density(psi, 0), 2.5)
    for order in (1, 2, 3):
        assert np.all(model.density(psi, order) == 0.0)


def test_linear_preset_orders():
    psi = np.array([0.25, 0.75])
    model = Linear(1.5)
    assert np.allclose(model.density(psi, 0), 1.5 * psi)
    assert np.allclose(model.density(psi, 1), 1.5)
    assert np.all(model.density(psi, 2) == 0.0)
    assert np.all(model.density(psi, 3) == 0.0)


def test_quadratic_preset_orders():
    psi = np.array([2.0])
    model = Quadratic(3.0)
    assert np.allclose(model.density(psi, 0), 6.0)
    assert np.allclose(model.density(psi, 1), 6.0)
    assert np.allclose(model.density(psi, 2), 3.0)
    assert np.all(model.density(psi, 3) == 0.0)


def test_flory_huggins_hand_value():
    model = FloryHuggins(1.0, 0.75, 0.0)
    f_half = model.density(np.array([0.5]), 0)[0]
    assert math.isclose(f_half, 1.0 + 0.75 * math.log(0.5), rel_tol=1e-14)
    assert math.isclose(f_half, 0.48013961458004105, rel_tol=1e-12)


def test_flory_huggins_second_and_third_derivatives():
    beta, chi = 0.8, 0.3
    model = FloryHuggins(1.0, beta, chi)
    psi = np.array([0.2, 0.5, 0.7])
    fpp = model.density(psi, 2)
    assert np.allclose(fpp, beta / (psi * (1 - psi)) - 2 * chi, rtol=1e-13)
    fppp = model.density(psi, 3)
    assert np.allclose(fppp, beta * (2 * psi - 1) / (psi**2 * (1 - psi) ** 2), rtol=1e-13)


def test_derivative_orders_match_finite_differences():
    eps = 1e-5
    psi = np.linspace(0.1, 0.9, 17)
    for model in ALL_PRESETS:
        for order in (1, 2, 3):
            exact = model.density(psi, order)
            approx = (
                model.density(psi + eps, order - 1) - model.density(psi - eps, order - 1)
            ) / (2 * eps)
            assert np.allclose(approx, exact, rtol=1e-7, atol=1e-7), (model, order)


# ---------------------------------------------------------------------------
# Surface tension, checked through the height rate |g| sigma hfrak / m_x
# that evaluate() gives the stepper


MOB = Mobilities(m_x=2.0, m_psi=1.0)


def height_rate(model):
    """``(psi, ev.dth, w)`` on a curved state, with ``w = |g| hfrak / m_x``,
    so that ``ev.dth = w * sigma(psi)``.  A bound on sigma becomes a bound
    on ``ev.dth`` times ``max |w|``."""
    g = Grid(16, 16)
    h = g.from_function(lambda x, y: 0.3 * np.sin(x) * np.cos(2 * y))
    state = FlowState(0.0, h, psi_field(g))
    ev = evaluate(state, ModelVariant.FULL_COUPLED, MOB, model)
    w = ev.cache.g_det * ev.cache.hfrak / MOB.m_x
    return state.psi.values, ev.dth, w


def test_sigma_identity_all_presets():
    for model in ALL_PRESETS:
        psi, dth, w = height_rate(model)
        f, fp, _, _ = model.derivatives(psi)
        assert np.abs(dth - w * (f - psi * fp)).max() < 1e-12 * np.abs(w).max(), model


def test_sigma_special_cases():
    psi, dth, w = height_rate(Constant(2.0))
    assert np.abs(dth - w * 2.0).max() < 1e-14 * np.abs(w).max()
    psi, dth, w = height_rate(Linear(1.7))
    assert np.abs(dth).max() < 1e-14 * np.abs(w).max()
    psi, dth, w = height_rate(Quadratic(3.0))
    assert np.abs(dth - w * (-1.5 * psi**2)).max() < 1e-14 * np.abs(w).max()


@pytest.mark.parametrize("chi", [0.0, 0.4], ids=["langmuir", "chi0.4"])
def test_flory_huggins_sigma_closed_form(chi):
    # chi = 0 is the Langmuir equation of state sigma0 + beta ln(1 - psi)
    sigma0, beta = 1.2, 0.75
    psi, dth, w = height_rate(FloryHuggins(sigma0, beta, chi))
    expected = w * (sigma0 + beta * np.log(1.0 - psi) + chi * psi**2)
    assert np.allclose(dth, expected, rtol=1e-13, atol=1e-15)


def test_double_well_onset():
    beta = 0.75
    for chi in (2.0, 3.0):
        model = FloryHuggins(1.0, beta, chi)
        fpp_mid = model.density(np.array([0.5]), 2)[0]
        assert math.isclose(fpp_mid, 4 * beta - 2 * chi, rel_tol=1e-13)
        if chi > 2 * beta:
            assert fpp_mid < 0.0
            # convex near the endpoints, concave in the middle
            assert model.density(np.array([0.01]), 2)[0] > 0.0
            assert model.density(np.array([0.99]), 2)[0] > 0.0
        else:
            assert fpp_mid > 0.0


# ---------------------------------------------------------------------------
# Domain clamping


def test_clamp_counts_out_of_domain_points():
    model = FloryHuggins(1.0, 0.75, 0.0)
    values = np.array([[-0.2, 0.5], [1.4, 0.999]])
    clamped, n = model.clamp(values)
    assert n == 2
    assert clamped.min() >= CLAMP_EPS
    assert clamped.max() <= 1.0 - CLAMP_EPS
    assert model.count_violations(values) == 2


def test_clamp_noop_for_polynomial_presets():
    values = np.array([-5.0, 0.5, 7.0])
    for model in (Constant(1.0), Linear(1.0), Quadratic(1.0)):
        clamped, n = model.clamp(values)
        assert n == 0
        assert np.all(clamped == values)


def test_total_energy_clamps_out_of_domain_points():
    g = Grid(16, 16)
    values = np.full((16, 16), 0.5)
    values[0, :3] = -1.0
    model = FloryHuggins(1.0, 0.75, 0.0)
    clamped, n = model.clamp(values)
    assert n == 3
    cache = build_cache(g.zeros())
    u = total_energy(model, values, cache)
    assert math.isfinite(u)
    assert u == total_energy(model, clamped, cache)


# ---------------------------------------------------------------------------
# Totals and the density variation


def test_total_energy_constant_flat():
    g = Grid(16, 16)
    cache = build_cache(g.zeros())
    u = total_energy(Constant(1.0), g.constant(0.3).values, cache)
    assert math.isclose(u, (2 * math.pi) ** 2, rel_tol=1e-13)


def test_total_energy_linear_is_slope_times_mass():
    g = Grid(32, 32)
    cache = build_cache(g.from_function(lambda x, y: 0.4 * np.sin(2 * x) * np.sin(y)))
    psi = psi_field(g).values
    mass = surface_integral(psi, cache)
    u = total_energy(Linear(2.5), psi, cache)
    assert math.isclose(u, 2.5 * mass, rel_tol=1e-12)


def test_total_energy_uniform_density_is_f_times_area():
    g = Grid(64, 64)
    cache = build_cache(g.from_function(lambda x, y: np.sin(2 * x) * np.sin(2 * y)))
    model = FloryHuggins(1.0, 0.75, 0.0)
    area = surface_integral(g.constant(1.0).values, cache)
    u = total_energy(model, g.constant(0.25).values, cache)
    f025 = model.density(np.array([0.25]), 0)[0]
    assert math.isclose(u, f025 * area, rel_tol=1e-12)


def test_tangential_variation_vanishes_for_constant_and_linear():
    # psi f''(psi) grad psi = 0 when f'' = 0: evaluate() gives no tangential
    # velocity, and the density variation f' is the constant slope.
    g = Grid(32, 32)
    h = g.from_function(lambda x, y: 0.3 * np.sin(x) * np.cos(y))
    state = FlowState(0.0, h, psi_field(g))
    for model, slope in ((Constant(2.0), 0.0), (Linear(1.5), 1.5)):
        ev = evaluate(state, ModelVariant.FULL_COUPLED, MOB, model)
        assert np.abs(ev.v).max() < 1e-14
        assert np.allclose(model.derivatives(state.psi.values)[1], slope, atol=1e-14)


def test_density_variation_matches_central_difference():
    g = Grid(32, 32)
    cache = build_cache(g.from_function(lambda x, y: 0.3 * np.sin(2 * x) * np.sin(y)))
    # phases and a mean component keep the pairing away from parity zeros
    psi = g.from_function(lambda x, y: 0.35 + 0.1 * np.sin(x + 0.5) * np.cos(y - 0.3))
    phi = g.from_function(
        lambda x, y: 0.05 + 0.2 * np.cos(x + 0.3) * np.cos(2 * y - 0.4) + 0.1 * np.sin(y + 0.2)
    )
    model = FloryHuggins(1.0, 0.75, 0.5)

    dpsi = model.derivatives(psi.values)[1]
    pairing = surface_integral(dpsi * phi.values, cache)
    assert abs(pairing) > 0.1

    def u_at(eps):
        return total_energy(model, psi.values + eps * phi.values, cache)

    errors = []
    for eps in (4e-2, 2e-2, 1e-2):
        central = (u_at(eps) - u_at(-eps)) / (2 * eps)
        errors.append(abs(central - pairing))
    # halving epsilon divides the quadrature error by ~4
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.05)
    assert errors[2] < 1e-4 * abs(pairing)
