"""Right-hand sides, time stepping, and model-variant invariants."""

import collections
import dataclasses
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import gradflow.diagnostics
import gradflow.flow
import gradflow.spectral
from gradflow import (
    Constant,
    FloryHuggins,
    FlowState,
    Grid,
    Linear,
    Mobilities,
    ModelVariant,
    Quadratic,
    ScalarField,
    Scheme,
    SolverAbort,
    StepperConfig,
    build_cache,
    covariant_norm_sq,
    derivatives,
    evaluate,
    parse_config,
    record,
    simulate,
    step,
    write_snapshot,
)

import oracles
from gradflow.geometry import truesdell_solve
from spectral_reference import dealias_solve, gradient, laplace_beltrami, tangential_divergence


def make_state(n=32, h_amp=0.3, psi_amp=0.1):
    g = Grid(n, n)
    h = g.from_function(
        lambda x, y: h_amp * (np.sin(x) * np.cos(y) + 0.4 * np.cos(2 * x + 0.4) * np.sin(y))
    )
    psi = g.from_function(
        lambda x, y: 0.5 + psi_amp * (np.sin(x + 0.2) * np.sin(y) + 0.5 * np.cos(2 * y))
    )
    return FlowState(t=0.0, h=h, psi=psi)


MOB = Mobilities(m_x=2.0, m_psi=1.0)

VARIANT_MODELS = [
    (ModelVariant.FULL_COUPLED, FloryHuggins(1.0, 0.75, 0.0)),
    (ModelVariant.VELOCITY_SUBSTITUTED, FloryHuggins(1.0, 0.75, 0.0)),
    (ModelVariant.NORMAL_ONLY, FloryHuggins(1.0, 0.75, 0.0)),
    (ModelVariant.MATERIAL_GAUGE_QUADRATIC, Quadratic(1.5)),
]


def clamping_state(n=32):
    """A curved state whose density leaves (0, 1) at some grid points."""
    g = Grid(n, n)
    h = g.from_function(lambda x, y: 0.3 * np.sin(x) * np.cos(y))
    psi = g.from_function(lambda x, y: 0.5 + 0.6 * np.sin(x + 0.2) * np.sin(y))
    return FlowState(t=0.0, h=h, psi=psi)


# ---------------------------------------------------------------------------
# Parameter validation


def test_mobilities_validation():
    with pytest.raises(ValueError):
        Mobilities(0.0, 1.0)
    with pytest.raises(ValueError):
        Mobilities(1.0, -2.0)
    Mobilities(1e-6, 1e6)


def test_stepper_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt=0.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=-1e-3)
    StepperConfig(dt=1e-3, scheme=Scheme.EXPLICIT_EULER)


def test_material_gauge_requires_quadratic():
    state = make_state(16)
    mgq = ModelVariant.MATERIAL_GAUGE_QUADRATIC
    for model in (Constant(1.0), Linear(1.0), FloryHuggins(1.0, 0.75, 0.0)):
        with pytest.raises(ValueError):
            evaluate(state, mgq, MOB, model)
    # Quadratic is accepted
    evaluate(state, mgq, MOB, Quadratic(1.0))


# ---------------------------------------------------------------------------
# Tangential velocity


def test_velocity_zero_for_normal_only():
    state = make_state()
    v = evaluate(state, ModelVariant.NORMAL_ONLY, MOB, FloryHuggins(1.0, 0.75, 0.0)).v
    assert np.all(v[0] == 0.0)
    assert np.all(v[1] == 0.0)


def test_velocity_zero_for_constant_density():
    state = make_state()
    v = evaluate(state, ModelVariant.FULL_COUPLED, MOB, Constant(2.0)).v
    assert np.all(v[0] == 0.0)
    assert np.all(v[1] == 0.0)


def test_velocity_zero_for_uniform_psi():
    g = Grid(32, 32)
    state = FlowState(0.0, g.from_function(lambda x, y: 0.2 * np.sin(x) * np.sin(y)), g.constant(0.4))
    v = evaluate(state, ModelVariant.FULL_COUPLED, MOB, FloryHuggins(1.0, 0.75, 0.0)).v
    assert np.abs(v[0]).max() < 1e-14
    assert np.abs(v[1]).max() < 1e-14


def test_velocity_closed_form_quadratic():
    state = make_state()
    c = 1.5
    v = evaluate(state, ModelVariant.FULL_COUPLED, MOB, Quadratic(c)).v
    px, py = gradient(state.psi)
    expected_x = -c * state.psi.values * px / MOB.m_x
    expected_y = -c * state.psi.values * py / MOB.m_x
    assert np.allclose(v[0], expected_x, atol=1e-15)
    assert np.allclose(v[1], expected_y, atol=1e-15)


def test_material_gauge_velocity_is_exact_negation():
    state = make_state()
    model = Quadratic(1.5)
    v_desc = evaluate(state, ModelVariant.FULL_COUPLED, MOB, model).v
    v_gauge = evaluate(state, ModelVariant.MATERIAL_GAUGE_QUADRATIC, MOB, model).v
    assert np.array_equal(v_gauge[0], -v_desc[0])
    assert np.array_equal(v_gauge[1], -v_desc[1])


# ---------------------------------------------------------------------------
# Height equation


def test_height_rhs_zero_for_linear_density():
    state = make_state()
    dth = evaluate(state, ModelVariant.FULL_COUPLED, MOB, Linear(3.0)).dth
    assert np.all(dth == 0.0)


def test_height_rhs_zero_on_flat_surface():
    g = Grid(32, 32)
    state = FlowState(0.0, g.zeros(), g.from_function(lambda x, y: 0.4 + 0.1 * np.sin(x)))
    dth = evaluate(state, ModelVariant.FULL_COUPLED, MOB, FloryHuggins(1.0, 0.75, 0.0)).dth
    assert np.abs(dth).max() < 1e-13


def test_height_rhs_mean_curvature_form():
    # constant density: dh/dt = c |g| hfrak / m_x
    state = make_state()
    cache = build_cache(state.h)
    c = 2.5
    dth = evaluate(state, ModelVariant.FULL_COUPLED, MOB, Constant(c)).dth
    expected = c * cache.g_det * cache.hfrak / MOB.m_x
    assert np.allclose(dth, expected, rtol=1e-13, atol=1e-13)


def test_material_gauge_height_rhs_is_exact_negation():
    state = make_state()
    model = Quadratic(1.5)
    a = evaluate(state, ModelVariant.FULL_COUPLED, MOB, model).dth
    b = evaluate(state, ModelVariant.MATERIAL_GAUGE_QUADRATIC, MOB, model).dth
    assert np.array_equal(b, -a)


# ---------------------------------------------------------------------------
# Density equation


def test_psi_rhs_flat_static_matches_fd_oracle():
    """On a flat surface without tangential motion (NORMAL_ONLY) the density
    equation reduces to nonlinear diffusion; the assembled rhs must converge
    to a 4th-order finite-difference evaluation of that reduction."""
    model = FloryHuggins(1.0, 0.75, 0.4)
    mob = Mobilities(m_x=1.0, m_psi=2.0)
    errors = []
    for n in (16, 32, 64):
        g = Grid(n, n)
        psi = g.from_function(oracles.psi_fn)
        state = FlowState(0.0, g.zeros(), psi)
        rhs = evaluate(state, ModelVariant.NORMAL_ONLY, mob, model).rhs_psi
        vals = psi.values
        fpp = model.density(vals, 2)
        fppp = model.density(vals, 3)
        dx, dy = g.lx / n, g.ly / n
        expected = oracles.fd_flat_diffusion(vals, fpp, fppp, dx, dy, mob.m_psi)
        errors.append(np.abs(rhs - expected).max())
    orders = oracles.observed_orders(errors)
    assert min(orders) >= 3.5, (errors, orders)


def test_psi_rhs_uniform_density_pure_transport():
    # psi == 1, constant density energy: the rhs is the dilution term
    # psi * hfrak * dth exactly (the flux and advection terms vanish).
    g = Grid(32, 32)
    state = FlowState(0.0, g.from_function(lambda x, y: 0.3 * np.sin(2 * x) * np.sin(y)), g.constant(1.0))
    cache = build_cache(state.h)
    c, m_x = 2.0, 5.0
    mob = Mobilities(m_x, 1.0)
    model = Constant(c)
    rhs = evaluate(state, ModelVariant.FULL_COUPLED, mob, model).rhs_psi
    expected = (c / m_x) * cache.g_det * cache.hfrak**2
    assert np.abs(rhs - expected).max() < 1e-12


def test_full_and_normal_only_agree_without_tangential_velocity():
    # constant f: the tangential velocity vanishes identically, so the two
    # variants must produce bit-identical trajectories.
    state = make_state(24)
    model = Constant(1.0)
    stepper = StepperConfig(dt=1e-4)
    a, b = state, state
    for _ in range(20):
        a = step(evaluate(a, ModelVariant.FULL_COUPLED, MOB, model), stepper)
        b = step(evaluate(b, ModelVariant.NORMAL_ONLY, MOB, model), stepper)
    assert np.array_equal(a.h.values, b.h.values)
    assert np.array_equal(a.psi.values, b.psi.values)


def test_full_and_normal_only_agree_for_uniform_psi_first_step():
    g = Grid(32, 32)
    s0 = FlowState(0.0, g.from_function(lambda x, y: 0.2 * np.sin(x) * np.cos(y)), g.constant(0.25))
    model = FloryHuggins(1.0, 0.75, 0.0)
    stepper = StepperConfig(dt=1e-5, scheme=Scheme.EXPLICIT_EULER)
    a = step(evaluate(s0, ModelVariant.FULL_COUPLED, MOB, model), stepper)
    b = step(evaluate(s0, ModelVariant.NORMAL_ONLY, MOB, model), stepper)
    assert np.abs(a.h.values - b.h.values).max() < 1e-14
    assert np.abs(a.psi.values - b.psi.values).max() < 1e-14


def test_velocity_substituted_matches_full_coupled_rhs():
    state = make_state(64)
    for model in (Quadratic(1.5), FloryHuggins(1.0, 0.75, 0.0)):
        r_full = evaluate(state, ModelVariant.FULL_COUPLED, MOB, model).rhs_psi
        r_sub = evaluate(state, ModelVariant.VELOCITY_SUBSTITUTED, MOB, model).rhs_psi
        scale = np.abs(r_full).max()
        assert np.abs(r_full - r_sub).max() < 1e-12 * scale, model


# ---------------------------------------------------------------------------
# Flux vector


def test_flux_vector_zero_for_linear_density():
    state = make_state()
    q = evaluate(state, ModelVariant.FULL_COUPLED, MOB, Linear(2.0)).flux()
    assert np.all(q[0] == 0.0)
    assert np.all(q[1] == 0.0)


def test_flux_vector_closed_form():
    state = make_state()
    c = 1.5
    q = evaluate(state, ModelVariant.FULL_COUPLED, MOB, Quadratic(c)).flux()
    px, py = gradient(state.psi)
    assert np.allclose(q[0], -c * px / MOB.m_psi, atol=1e-15)
    assert np.allclose(q[1], -c * py / MOB.m_psi, atol=1e-15)


# ---------------------------------------------------------------------------
# Stabilization coefficients


def test_stabilization_explicit_euler_is_zero():
    # The evaluation carries the IMEX1 coefficients of the state whatever the
    # scheme; an explicit-Euler step applies none of them.
    state = make_state()
    dt = 1e-4
    model = FloryHuggins(1.0, 0.75, 0.0)
    explicit = StepperConfig(dt=dt, scheme=Scheme.EXPLICIT_EULER)
    ev = evaluate(state, ModelVariant.FULL_COUPLED, MOB, model)
    assert ev.a_h > 0.0 and ev.a_psi > 0.0
    s = step(ev, explicit)
    g = state.grid
    assert np.array_equal(
        s.h.values, state.h.values + dt * dealias_solve(ScalarField(g, ev.dth), 0.0)
    )
    assert np.array_equal(
        s.psi.values, state.psi.values + dt * dealias_solve(ScalarField(g, ev.rhs_psi), 0.0)
    )
    applied = gradflow.flow.stabilization_coefficients
    assert applied(state, ModelVariant.FULL_COUPLED, MOB, model, explicit) == (0.0, 0.0)
    imex = StepperConfig(dt=dt)
    assert applied(state, ModelVariant.FULL_COUPLED, MOB, model, imex) == (ev.a_h, ev.a_psi)


def test_imex_step_damps_each_increment_with_its_own_coefficient():
    # Both increments share one transform pair; each is still the one-field
    # dealias_solve with its own coefficient, to the bit.
    state = make_state()
    dt = 1e-2
    ev = evaluate(state, ModelVariant.FULL_COUPLED, MOB, FloryHuggins(1.0, 0.75, 0.0))
    assert ev.a_h != ev.a_psi
    s = step(ev, StepperConfig(dt=dt))
    for new, old, rate, a in (
        (s.h, state.h, ev.dth, ev.a_h),
        (s.psi, state.psi, ev.rhs_psi, ev.a_psi),
    ):
        rate = ScalarField(state.grid, rate)
        damped = dealias_solve(rate, dt * a)
        assert np.array_equal(new.values, old.values + dt * damped)
        # The damping is not negligible at this dt.
        undamped = dealias_solve(rate, 0.0)
        assert np.abs(damped - undamped).max() > 1e-3 * np.abs(undamped).max()


def test_stabilization_auto_values():
    state = make_state()
    c = 2.0
    ev = evaluate(state, ModelVariant.FULL_COUPLED, MOB, Constant(c))
    assert ev.a_h == pytest.approx(c / MOB.m_x, rel=1e-13)
    assert ev.a_psi == 0.0  # f'' == 0

    model = FloryHuggins(1.0, 0.75, 0.0)
    ev = evaluate(state, ModelVariant.FULL_COUPLED, MOB, model)
    a_h, a_psi = ev.a_h, ev.a_psi
    vals = state.psi.values
    sigma = model.density(vals, 0) - vals * model.density(vals, 1)
    amp = 1.0 + vals**2 * (MOB.m_psi / MOB.m_x)
    assert a_h == pytest.approx(np.abs(sigma).max() / MOB.m_x, rel=1e-13)
    assert a_psi == pytest.approx((amp * model.density(vals, 2)).max() / MOB.m_psi, rel=1e-13)


# ---------------------------------------------------------------------------
# Time stepping


def test_linear_density_state_is_frozen_bitwise():
    state = make_state(24)
    stepper = StepperConfig(dt=1e-3)
    s = state
    for _ in range(200):
        s = step(evaluate(s, ModelVariant.FULL_COUPLED, MOB, Linear(2.0)), stepper)
    assert np.array_equal(s.h.values, state.h.values)
    assert np.array_equal(s.psi.values, state.psi.values)
    assert s.step_index == 200
    assert s.t == pytest.approx(0.2, rel=1e-12)


def test_single_mode_height_decays_monotonically():
    g = Grid(32, 32)
    s = FlowState(0.0, g.from_function(lambda x, y: 0.01 * np.sin(x)), g.constant(0.5))
    stepper = StepperConfig(dt=1e-3)
    mob = Mobilities(1.0, 1.0)
    amps = [np.abs(s.h.values).max()]
    for _ in range(50):
        s = step(evaluate(s, ModelVariant.FULL_COUPLED, mob, Constant(1.0)), stepper)
        amps.append(np.abs(s.h.values).max())
    diffs = np.diff(amps)
    assert np.all(diffs < 0.0)
    # linearized rate for mode 1 is exp(-c t / m_x)
    expected = amps[0] * np.exp(-0.05)
    assert amps[-1] == pytest.approx(expected, rel=5e-3)


def test_imex_auto_damping_changes_the_update():
    state = make_state()
    model = FloryHuggins(1.0, 0.75, 0.0)
    ev = evaluate(state, ModelVariant.FULL_COUPLED, MOB, model)
    explicit = step(ev, StepperConfig(dt=1e-3, scheme=Scheme.EXPLICIT_EULER))
    damped = step(ev, StepperConfig(dt=1e-3, scheme=Scheme.IMEX1))
    assert not np.array_equal(explicit.h.values, damped.h.values)


def test_step_metadata_advances():
    state = make_state(16)
    s1 = step(evaluate(state, ModelVariant.FULL_COUPLED, MOB, Constant(1.0)), StepperConfig(dt=1e-4))
    assert s1.step_index == 1
    assert s1.t == pytest.approx(1e-4)
    assert state.step_index == 0  # input untouched


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_raises_solver_abort_with_last_valid_state():
    g = Grid(16, 16)
    s = FlowState(0.0, g.from_function(lambda x, y: np.sin(2 * x) * np.sin(2 * y)), g.constant(0.25))
    stepper = StepperConfig(dt=0.05, scheme=Scheme.EXPLICIT_EULER)
    mob = Mobilities(5.0, 1.0)
    model = FloryHuggins(1.0, 0.75, 0.0)
    with pytest.raises(SolverAbort) as excinfo:
        for _ in range(200):
            s = step(evaluate(s, ModelVariant.FULL_COUPLED, mob, model), stepper)
    err = excinfo.value
    assert isinstance(err.last_valid, FlowState)
    assert np.all(np.isfinite(err.last_valid.h.values))
    assert np.all(np.isfinite(err.last_valid.psi.values))
    assert "non-finite" in str(err)
    assert f"step {err.last_valid.step_index + 1}" in str(err)


def test_blowup_aborts_without_floating_point_warnings():
    g = Grid(16, 16)
    s = FlowState(0.0, g.from_function(lambda x, y: np.sin(2 * x) * np.sin(2 * y)), g.constant(0.25))
    stepper = StepperConfig(dt=0.05, scheme=Scheme.EXPLICIT_EULER)
    mob = Mobilities(5.0, 1.0)
    model = FloryHuggins(1.0, 0.75, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverAbort) as excinfo:
            for _ in range(200):
                s = step(evaluate(s, ModelVariant.FULL_COUPLED, mob, model), stepper)
    assert np.all(np.isfinite(excinfo.value.last_valid.h.values))


def test_explicit_euler_ignores_an_infinite_damping_coefficient():
    # Explicit Euler selects zero damping; it does not scale a_h/a_psi by 0,
    # which would turn an infinite coefficient into NaN.
    ev = evaluate(make_state(16), ModelVariant.FULL_COUPLED, MOB, FloryHuggins(1.0, 0.75, 0.0))
    stepper = StepperConfig(dt=1e-4, scheme=Scheme.EXPLICIT_EULER)
    a = step(ev, stepper)
    b = step(dataclasses.replace(ev, a_h=np.inf, a_psi=np.inf), stepper)
    assert np.array_equal(a.h.values, b.h.values)
    assert np.array_equal(a.psi.values, b.psi.values)


# ---------------------------------------------------------------------------
# One evaluation shared by step and record


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("variant, model", VARIANT_MODELS)
def test_step_with_shared_evaluation_is_bit_identical(variant, model, scheme):
    # simulate records a state and then steps it from the same evaluation:
    # the record must leave what the step reads untouched.
    state = make_state()
    stepper = StepperConfig(dt=1e-4, scheme=scheme)
    a = step(evaluate(state, variant, MOB, model), stepper)
    ev = evaluate(state, variant, MOB, model)
    record(ev, clamp_count=ev.clamp_count)
    b = step(ev, stepper)
    assert np.array_equal(a.h.values, b.h.values)
    assert np.array_equal(a.psi.values, b.psi.values)
    assert (a.t, a.step_index) == (b.t, b.step_index)


# ---------------------------------------------------------------------------
# Clamp tally


def test_series_clamp_counts_are_the_per_step_tally(tmp_path):
    state = clamping_state(16)
    write_snapshot(state, tmp_path / "start.sgf")
    config = parse_config(
        f"""
        grid.nx = 16
        energy.kind = flory_huggins
        energy.chi = 0.3
        mobility.m_x = 2.0
        stepper.dt = 1e-5
        run.t_end = 4e-5
        run.record_every = 1
        initial.h = file:{tmp_path / "start.sgf"}
        initial.psi = file:{tmp_path / "start.sgf"}
        """
    )
    result = simulate(config)
    model = config.energy
    mob = Mobilities(config.m_x, config.m_psi)
    stepper = StepperConfig(dt=config.dt)
    s, total, expected = state, 0, [0]
    for _ in range(4):
        n = model.count_violations(s.psi.values)
        assert n > 0
        total += n
        s = step(evaluate(s, ModelVariant.FULL_COUPLED, mob, model), stepper)
        expected.append(total)
    assert [r.clamp_count for r in result.records] == expected
    assert result.clamp_count == total > 0


# ---------------------------------------------------------------------------
# Analytic velocity gradients


def _rhs_with_velocity_gradients(ev, model, dv):
    """``rhs_psi`` of the full/material-gauge density equation, rebuilt from
    the reference operators of ``spectral_reference`` and the Truesdell
    solve with the tangential divergence of the flat velocity gradients ``dv = (vx_x, vx_y, vy_x,
    vy_y)``."""
    psi, cache = ev.state.psi, ev.cache
    _, _, fpp, fppp = model.derivatives(model.clamp(psi.values)[0])
    grad = np.stack(gradient(psi))
    lap = laplace_beltrami(psi.values, cache)
    diffusive = (fpp * lap + fppp * covariant_norm_sq(grad, cache)) / MOB.m_psi
    px, py = grad
    hx, hy, g = cache.hx, cache.hy, cache.g_det
    return truesdell_solve(
        diffusive, psi.values, px, py, px * hx + py * hy, ev.dth, hx, hy,
        g, cache.hfrak, v=ev.v,
        div_t=tangential_divergence(*dv, hx, hy, g),
    )


def _analytic_velocity_gradients(state, model, sign, third):
    """Flat gradients ``d_j v_i = phi' psi_i psi_j + phi psi_ij`` of the
    velocity ``v = phi grad psi``, ``phi = -sign psi f'' / m_x``, with
    ``third`` in place of ``f'''`` in ``phi'``."""
    psi = state.psi.values
    _, _, fpp, _ = model.derivatives(model.clamp(psi)[0])
    px, py, pxx, pxy, pyy = derivatives(state.psi)
    phi = -sign * psi * fpp / MOB.m_x
    dphi = -sign * (fpp + psi * third) / MOB.m_x
    v_xy = dphi * px * py + phi * pxy
    return (dphi * px * px + phi * pxx, v_xy, v_xy, dphi * py * py + phi * pyy)


def _third_derivative_off_the_clamp(state, model):
    """``f'''`` of the clamped density, zero where the clamp acts."""
    psi = state.psi.values
    clamped, _ = model.clamp(psi)
    return np.where(clamped == psi, model.derivatives(clamped)[3], 0.0)


@pytest.mark.parametrize("variant, model", [VARIANT_MODELS[0], VARIANT_MODELS[3]])
def test_analytic_velocity_gradients_match_spectral_ones(variant, model):
    ev = evaluate(make_state(64), variant, MOB, model)
    dv = tuple(d for c in ev.v for d in gradient(ScalarField(ev.state.grid, c)))
    expected = _rhs_with_velocity_gradients(ev, model, dv)
    scale = np.abs(expected).max()
    assert np.abs(ev.rhs_psi - expected).max() <= 1e-9 * scale
    # The velocity terms are not negligible on this state.
    assert np.abs(ev.v[0]).max() > 1e-2


@pytest.mark.parametrize(
    "variant, model, state, clamps",
    [
        (*VARIANT_MODELS[0], make_state(32), False),
        (*VARIANT_MODELS[3], make_state(32), False),
        (ModelVariant.FULL_COUPLED, FloryHuggins(1.0, 0.75, 0.3), clamping_state(), True),
    ],
    ids=["full", "material_gauge", "full_clamping"],
)
def test_density_rate_takes_the_divergence_of_the_analytic_velocity_gradients(
    variant, model, state, clamps
):
    # evaluate forms the divergence as phi' |grad psi|^2 + phi tr D2 psi; the
    # kernel applied to the four flat gradients gives the same rate.
    ev = evaluate(state, variant, MOB, model)
    sign = -1.0 if variant is ModelVariant.MATERIAL_GAUGE_QUADRATIC else 1.0
    third = _third_derivative_off_the_clamp(state, model)
    dv = _analytic_velocity_gradients(state, model, sign, third)
    expected = _rhs_with_velocity_gradients(ev, model, dv)
    assert np.abs(ev.rhs_psi - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.abs(ev.v[0]).max() > 1e-2
    assert (ev.clamp_count > 0) == clamps


def test_clamped_points_drop_the_third_derivative_term():
    model = FloryHuggins(1.0, 0.75, 0.3)
    state = clamping_state()
    ev = evaluate(state, ModelVariant.FULL_COUPLED, MOB, model)
    assert ev.clamp_count > 0
    assert np.all(np.isfinite(ev.rhs_psi))

    psi = state.psi.values
    clamped, _ = model.clamp(psi)
    fppp = model.derivatives(clamped)[3]
    free = clamped == psi

    def rhs(third):
        dv = _analytic_velocity_gradients(state, model, 1.0, third)
        return _rhs_with_velocity_gradients(ev, model, dv)

    without = rhs(_third_derivative_off_the_clamp(state, model))
    scale = np.abs(without).max()
    assert np.abs(ev.rhs_psi - without).max() <= 1e-12 * scale
    # Keeping f''' at the clamped points would change the rate there only.
    kept = rhs(fppp)
    assert np.abs(kept - without)[~free].max() > 1e-2 * scale
    assert np.array_equal(kept[free], without[free])


# ---------------------------------------------------------------------------
# Transform and geometry budget


@pytest.fixture
def calls(monkeypatch):
    """Counts of 2-D transform calls (``fft``), of the fields they transform
    (``forward``, ``inverse``: the leading dimensions of their inputs) and of
    geometry builds, by rebinding the names the solver looks up at call time.
    ``calls.transforms`` lists each transform as ``(kind, fields)``."""
    counts = collections.Counter()
    counts.transforms = []

    def counting(name, fn, kind=None):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            if kind is not None:
                fields = int(np.prod(args[0].shape[:-2]))
                counts[kind] += fields
                counts.transforms.append((kind, fields))
            return fn(*args, **kwargs)

        return wrapped

    for owner, attr, name, kind in (
        (gradflow.spectral, "_rfft2", "fft", "forward"),
        (gradflow.spectral, "_irfft2", "fft", "inverse"),
        (gradflow.flow, "build_cache", "build_cache", None),
        (gradflow.diagnostics, "build_cache", "build_cache", None),
    ):
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr), kind))
    return counts


def test_recorded_normal_only_run_builds_each_geometry_once(calls):
    config = parse_config(
        """
        grid.nx = 16
        energy.kind = flory_huggins
        model.variant = normal_only
        stepper.dt = 1e-4
        stepper.scheme = explicit_euler
        run.t_end = 5e-4
        run.record_every = 1
        initial.psi = 0.25
        """
    )
    result = simulate(config)
    assert len(result.records) == 6
    assert calls["build_cache"] == 6  # one per state: the start and five steps


def test_record_with_an_evaluation_makes_no_transform(calls):
    state = make_state(16)
    for variant, model in VARIANT_MODELS:
        ev = evaluate(state, variant, MOB, model)
        calls.clear()
        record(ev)
        assert calls["fft"] == 0 and calls["build_cache"] == 0, variant


def test_evaluation_keeps_no_second_derivatives():
    # The slopes of h have their own 2-field array, and those of psi share a
    # block only with arrays the evaluation keeps, whose rows held psi's
    # second derivatives until the rates overwrote them.  So the three second
    # derivatives of h and of psi are freed when it returns.
    state = make_state(16)
    for variant, model in VARIANT_MODELS:
        ev = evaluate(state, variant, MOB, model)
        for kept in (ev.cache.hx, ev.cache.hy):
            assert kept.base is not None and kept.base.shape[0] <= 2, variant
        rows = (ev.psi_x, ev.psi_y, ev.f, ev.fpp, ev.dth, ev.rhs_psi)
        block = ev.psi_x.base
        assert block is not None and block.shape[0] == len(rows), variant
        assert all(np.shares_memory(row, block[i]) for i, row in enumerate(rows)), variant


def test_full_imex_step_transform_budget(calls):
    # The derivatives of h and of psi transform one field forward and five
    # back each (slopes, then second derivatives), and each damped increment
    # one field each way; the velocity divergence is analytic.
    state = make_state(16)
    ev = evaluate(state, ModelVariant.FULL_COUPLED, MOB, FloryHuggins(1.0, 0.75, 0.0))
    step(ev, StepperConfig(dt=1e-4))
    assert calls["build_cache"] == 1
    assert (calls["forward"], calls["inverse"]) == (4, 12)
    assert calls["fft"] == 10


def test_normal_only_explicit_step_transform_budget(calls):
    state = make_state(16)
    stepper = StepperConfig(dt=1e-4, scheme=Scheme.EXPLICIT_EULER)
    step(evaluate(state, ModelVariant.NORMAL_ONLY, MOB, FloryHuggins(1.0, 0.75, 0.0)), stepper)
    assert calls["build_cache"] == 1
    assert (calls["forward"], calls["inverse"]) == (4, 12)
    assert calls["fft"] == 10


@pytest.mark.parametrize("variant", [ModelVariant.FULL_COUPLED, ModelVariant.NORMAL_ONLY])
def test_paired_step_makes_the_same_transforms(calls, pairing, variant):
    # Every grid size takes one layout: pairing only moves the second call of
    # each pair to the helper thread, so a step transforms the same fields in
    # the same calls on and off.
    state = make_state(16)
    model = FloryHuggins(1.0, 0.75, 0.0)
    made = []
    for on in (False, True):
        pairing(on)
        calls.transforms.clear()
        step(evaluate(state, variant, MOB, model), StepperConfig(dt=1e-4))
        made.append(sorted(calls.transforms))
    assert made[0] == made[1]
    assert pairing.helper_calls == 3


# ---------------------------------------------------------------------------
# Working set


def _numpy_bytes():
    """Bytes of the numpy array data alive now."""
    numpy_only = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    return sum(t.size for t in tracemalloc.take_snapshot().filter_traces([numpy_only]).traces)


@pytest.mark.parametrize("variant, model", VARIANT_MODELS)
def test_evaluation_works_in_the_grid_work_arrays(variant, model):
    # On a warm state, an evaluation allocates the 12 full-grid arrays it
    # keeps and forms every intermediate in the grid's work arrays; a step
    # allocates the new state's two.  The peaks count Python objects too.
    state = make_state(32)
    stepper = StepperConfig(dt=1e-4)
    step(evaluate(state, variant, MOB, model), stepper)  # allocates the work arrays
    array_bytes = state.h.values.nbytes
    tracemalloc.start()
    try:
        kept_before = _numpy_bytes()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        ev = evaluate(state, variant, MOB, model)
        peak = tracemalloc.get_traced_memory()[1]
        kept = _numpy_bytes() - kept_before
        tracemalloc.reset_peak()
        start_step = tracemalloc.get_traced_memory()[0]
        step(ev, stepper)
        peak_step = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept <= 12 * array_bytes
    assert peak - start <= 16 * array_bytes
    assert peak_step - start_step <= 3 * array_bytes


@pytest.mark.parametrize("variant, model", VARIANT_MODELS)
def test_record_works_in_the_grid_work_arrays(variant, model):
    # A warm record forms its area element, integrands, norms and flux in the
    # grid's work arrays; the peak counts Python objects too.
    state = make_state(32)
    ev = evaluate(state, variant, MOB, model)
    record(ev)
    array_bytes = state.h.values.nbytes
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        record(ev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 2 * array_bytes


def test_grid_stores_no_derivative_multipliers():
    # The derivatives multiply the spectrum by per-axis factors; apart from
    # its two work stacks the grid holds nothing larger than one spectrum.
    g = make_state(32).grid
    derivatives(g.from_function(lambda x, y: np.sin(x) * np.cos(y)))
    work = (g._work(), g._spectral_work())
    held = [a for v in vars(g).values() for a in (v if isinstance(v, tuple) else (v,))]
    stored = [a for a in held if isinstance(a, np.ndarray) and not any(a is w for w in work)]
    assert stored and all(a.size <= g.nx * (g.ny // 2 + 1) for a in stored)


# ---------------------------------------------------------------------------
# The paired path: the halves of a step on this thread and the helper thread


def _fingerprint(ev, new_state):
    """The bytes of every array of an evaluation and of the state it steps
    to, with its coefficients and clamp count."""
    arrays = (
        ev.psi_x, ev.psi_y, ev.f, ev.fpp, ev.dth, ev.v, ev.rhs_psi,
        ev.cache.hx, ev.cache.hy, ev.cache.g_det, ev.cache.hfrak,
        new_state.h.values, new_state.psi.values,
    )
    return [a.tobytes() for a in arrays] + [repr(ev.a_h), repr(ev.a_psi), ev.clamp_count]


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("variant, model", VARIANT_MODELS)
def test_paired_evaluation_and_step_are_bit_identical(pairing, variant, model, scheme):
    stepper = StepperConfig(dt=1e-4, scheme=scheme)
    for state in (make_state(32), clamping_state(32)):
        runs = []
        for on in (False, True):
            pairing(on)
            ev = evaluate(state, variant, MOB, model)
            runs.append(_fingerprint(ev, step(ev, stepper)))
        assert runs[0] == runs[1], variant
    assert pairing.helper_calls == 2 * 3  # per state: psi's derivatives, a half, an increment


def test_paired_evaluation_keeps_its_working_set(pairing):
    # Paired, the derivatives of psi land in the arrays the evaluation keeps,
    # and each half of the rate algebra works in its rows of the work arrays.
    # The step's two solves hold their half-spectrum temporaries at once, so
    # its peak is one array above the one-thread bound.
    pairing(True)
    state = make_state(32)
    variant, model = VARIANT_MODELS[0]
    stepper = StepperConfig(dt=1e-4)
    step(evaluate(state, variant, MOB, model), stepper)  # allocates the work arrays
    array_bytes = state.h.values.nbytes
    tracemalloc.start()
    try:
        kept_before = _numpy_bytes()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        ev = evaluate(state, variant, MOB, model)
        peak = tracemalloc.get_traced_memory()[1]
        kept = _numpy_bytes() - kept_before
        tracemalloc.reset_peak()
        start_step = tracemalloc.get_traced_memory()[0]
        step(ev, stepper)
        peak_step = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept <= 12 * array_bytes
    assert peak - start <= 16 * array_bytes
    assert peak_step - start_step <= 4 * array_bytes
    assert pairing.helper_calls == 2 * 3


@pytest.mark.parametrize("row", [1, 30])
def test_paired_damping_coefficient_keeps_a_nan(pairing, row):
    # A NaN in either half of sigma makes a_h NaN, as it does on one thread:
    # the peaks of the halves are combined by a NaN-propagating maximum.
    state = make_state(32)
    psi = state.psi.values.copy()
    psi[row, 5] = np.nan
    state = FlowState(0.0, state.h, ScalarField(state.grid, psi))
    for on in (False, True):
        pairing(on)
        ev = evaluate(state, ModelVariant.FULL_COUPLED, MOB, FloryHuggins(1.0, 0.75, 0.0))
        assert np.isnan(ev.a_h), on
        assert ev.a_psi >= 0.0
    assert pairing.helper_calls


def test_pair_raises_an_exception_of_either_call_once_both_ended(pairing):
    pairing(True)
    grid = Grid(16, 16)
    ended = []

    def fails():
        assert threading.current_thread() is not threading.main_thread()
        raise FloatingPointError("from the helper")

    with pytest.raises(FloatingPointError, match="from the helper"):
        gradflow.spectral._pair(grid, lambda: ended.append("a"), fails)
    assert ended == ["a"]

    def fails_here():
        raise ValueError("from the caller")

    with pytest.raises(ValueError, match="from the caller"):
        gradflow.spectral._pair(grid, fails_here, lambda: ended.append("b"))
    assert ended == ["a", "b"]
    assert gradflow.spectral._pair(grid, lambda: 1, lambda: 2) == (1, 2)


def test_interrupted_pair_returns_once_the_helper_ended(pairing):
    # A KeyboardInterrupt while the caller waits is raised only after the
    # helper's call ended: until then it may still write to the grid's work
    # arrays, which the caller's next evaluation would reuse.
    pairing(True)
    grid = Grid(16, 16)
    main, ended = threading.get_ident(), []

    def interrupts():
        signal.pthread_kill(main, signal.SIGINT)
        time.sleep(0.3)
        ended.append("b")

    with pytest.raises(KeyboardInterrupt):
        gradflow.spectral._pair(grid, lambda: None, interrupts)
    assert ended == ["b"]
    assert gradflow.spectral._pair(grid, lambda: 1, lambda: 2) == (1, 2)


def test_pair_serves_callers_on_several_threads(pairing):
    # Each caller gets its own reply, even with the interpreter switching
    # threads as often as it can.
    pairing(True)
    grid = Grid(16, 16)
    wrong = []

    def caller(k):
        for i in range(300):
            got = gradflow.spectral._pair(grid, lambda: (k, i), lambda: (i, k))
            if got != ((k, i), (i, k)):
                wrong.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_helper(pairing):
    # A child forked after the helper started has no helper thread; without
    # its own, its first pair would wait forever.
    pairing(True)
    grid = Grid(16, 16)
    assert gradflow.spectral._pair(grid, lambda: 1, lambda: 2) == (1, 2)
    pid = os.fork()
    if pid == 0:  # the child
        ok = gradflow.spectral._pair(grid, lambda: 1, lambda: 2) == (1, 2)
        os._exit(0 if ok else 1)
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's pair did not return within 30 s")
    assert os.waitstatus_to_exitcode(status) == 0
