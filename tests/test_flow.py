"""Right-hand sides, time stepping, and model-variant invariants."""

import collections
import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import gradflow.diagnostics
import gradflow.flow
import gradflow.spectral
from gradflow import (
    ConfigError,
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
from gradflow.config import initial_state
from gradflow.geometry import truesdell_solve
from spectral_reference import (
    dealias_solve,
    gradient,
    laplace_beltrami,
    tangential_divergence,
    velocity_substituted_rate,
)


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
    ev = evaluate(state, ModelVariant.NORMAL_ONLY, MOB, FloryHuggins(1.0, 0.75, 0.0))
    assert ev.phi is None
    v = ev.velocity()
    assert np.all(v[0] == 0.0)
    assert np.all(v[1] == 0.0)


def test_velocity_zero_for_constant_density():
    state = make_state()
    v = evaluate(state, ModelVariant.FULL_COUPLED, MOB, Constant(2.0)).velocity()
    assert np.all(v[0] == 0.0)
    assert np.all(v[1] == 0.0)


def test_velocity_zero_for_uniform_psi():
    g = Grid(32, 32)
    state = FlowState(0.0, g.from_function(lambda x, y: 0.2 * np.sin(x) * np.sin(y)), g.constant(0.4))
    v = evaluate(state, ModelVariant.FULL_COUPLED, MOB, FloryHuggins(1.0, 0.75, 0.0)).velocity()
    assert np.abs(v[0]).max() < 1e-14
    assert np.abs(v[1]).max() < 1e-14


def test_velocity_closed_form_quadratic():
    state = make_state()
    c = 1.5
    v = evaluate(state, ModelVariant.FULL_COUPLED, MOB, Quadratic(c)).velocity()
    px, py = gradient(state.psi)
    expected_x = -c * state.psi.values * px / MOB.m_x
    expected_y = -c * state.psi.values * py / MOB.m_x
    assert np.allclose(v[0], expected_x, atol=1e-15)
    assert np.allclose(v[1], expected_y, atol=1e-15)


def test_material_gauge_velocity_is_exact_negation():
    state = make_state()
    model = Quadratic(1.5)
    v_desc = evaluate(state, ModelVariant.FULL_COUPLED, MOB, model).velocity()
    v_gauge = evaluate(state, ModelVariant.MATERIAL_GAUGE_QUADRATIC, MOB, model).velocity()
    assert np.array_equal(v_gauge[0], -v_desc[0])
    assert np.array_equal(v_gauge[1], -v_desc[1])


@pytest.mark.parametrize("variant, model", VARIANT_MODELS)
def test_velocity_is_phi_times_the_density_gradient(variant, model):
    # The evaluation keeps phi = -sign psi f'' / m_x, and the velocity is its
    # product with each slope of psi, to the bit; normal-only keeps no phi.
    state = make_state()
    ev = evaluate(state, variant, MOB, model)
    v = ev.velocity()
    if variant is ModelVariant.NORMAL_ONLY:
        assert ev.phi is None
        assert v.tobytes() == np.zeros_like(v).tobytes()
    else:
        sign = -1.0 if variant is ModelVariant.MATERIAL_GAUGE_QUADRATIC else 1.0
        psi = state.psi.values
        fpp = model.derivatives(model.clamp(psi)[0])[2]
        assert ev.phi.tobytes() == (psi * fpp * (-sign / MOB.m_x)).tobytes()
        for component, slope in zip(v, (ev.psi_x, ev.psi_y)):
            assert component.tobytes() == (ev.phi * slope).tobytes()
    out = np.full_like(v, np.nan)
    assert ev.velocity(out=out) is out
    assert out.tobytes() == v.tobytes()


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
        r_sub = velocity_substituted_rate(state, MOB, model)
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


def _hand_loop(model, dt, steps=200):
    """Explicit steps of a 16x16 film until ``step`` aborts; the abort."""
    g = Grid(16, 16)
    s = FlowState(0.0, g.from_function(lambda x, y: np.sin(2 * x) * np.sin(2 * y)), g.constant(0.25))
    stepper = StepperConfig(dt=dt, scheme=Scheme.EXPLICIT_EULER)
    mob = Mobilities(5.0, 1.0)
    with pytest.raises(SolverAbort) as excinfo:
        for _ in range(steps):
            s = step(evaluate(s, ModelVariant.FULL_COUPLED, mob, model), stepper)
    return excinfo.value


def test_blowup_raises_solver_abort_with_last_valid_state():
    # The quadratic density has no bounds, so the fields run on until they
    # stop being finite, at step 11.
    err = _hand_loop(Quadratic(1.0), dt=0.2)
    assert isinstance(err.last_valid, FlowState)
    assert np.all(np.isfinite(err.last_valid.h.values))
    assert np.all(np.isfinite(err.last_valid.psi.values))
    assert str(err) == "non-finite fields after step 11 (t = 2.2); aborting"
    assert err.last_valid.step_index == 10


@pytest.mark.parametrize(
    "model, dt, fault",
    [(FloryHuggins(1.0, 0.75, 0.0), 0.05, "density -"), (Quadratic(1.0), 0.2, "non-finite")],
    ids=["domain", "non_finite"],
)
def test_blowup_aborts_without_floating_point_warnings(model, dt, fault):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _hand_loop(model, dt)
    assert str(err).startswith(fault)
    assert np.all(np.isfinite(err.last_valid.h.values))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["h", "psi"])
def test_a_single_non_finite_value_aborts_the_step(field, value):
    # The finite checks read the two extremes of each new field: a NaN
    # propagates to both, and an infinity is one of them.  A non-finite
    # density is reported as such, before any escape from the domain.
    state = make_state(16)
    ev = evaluate(state, ModelVariant.FULL_COUPLED, MOB, FloryHuggins(1.0, 0.75, 0.0))
    values = getattr(state, field).values.copy()
    values[3, 5] = value
    bad = dataclasses.replace(state, **{field: ScalarField(state.grid, values)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverAbort) as excinfo:
            step(dataclasses.replace(ev, state=bad), StepperConfig(dt=1e-4))
    assert str(excinfo.value) == "non-finite fields after step 1 (t = 0.0001); aborting"
    assert excinfo.value.last_valid is bad


def test_a_hand_loop_aborts_where_simulate_does():
    # Explicit Euler takes this problem's density out of [0, 1] at step 3.
    config = parse_config(
        """
        grid.nx = 16
        energy.kind = flory_huggins
        mobility.m_x = 5.0
        stepper.dt = 0.05
        stepper.scheme = explicit_euler
        run.t_end = 0.5
        run.record_every = 1
        initial.psi = 0.25
        """
    )
    result = simulate(config)
    assert result.aborted
    s = initial_state(config, Grid(config.nx, config.ny))
    mob = Mobilities(config.m_x, config.m_psi)
    stepper = StepperConfig(config.dt, config.scheme)
    with pytest.raises(SolverAbort) as excinfo:
        for _ in range(10):
            s = step(evaluate(s, config.variant, mob, config.energy), stepper)
    err = excinfo.value
    assert str(err) == result.abort_message
    assert err.last_valid.step_index == result.state.step_index == 2
    assert err.last_valid.t == result.state.t
    assert err.last_valid.h.values.tobytes() == result.state.h.values.tobytes()
    assert err.last_valid.psi.values.tobytes() == result.state.psi.values.tobytes()


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


def test_a_snapshot_density_outside_the_domain_is_refused(tmp_path):
    # psi = 0.5 +- 0.6 leaves [0, 1]: bad input, refused before anything runs.
    state = clamping_state(16)
    path = tmp_path / "start.sgf"
    write_snapshot(state, path)
    config = parse_config(
        f"""
        grid.nx = 16
        energy.kind = flory_huggins
        energy.chi = 0.3
        stepper.dt = 1e-5
        run.t_end = 4e-5
        initial.h = file:{path}
        initial.psi = file:{path}
        """
    )
    with pytest.raises(ConfigError) as info:
        simulate(config, out_dir=tmp_path / "out")
    message = str(info.value)
    psi = state.psi.values
    prefix = f"key 'initial.psi': snapshot '{path}' holds density {float(psi.min())} outside [0, 1] "
    assert message.startswith(prefix + "at grid index (")
    i, j = map(int, message.removeprefix(prefix + "at grid index (").removesuffix(")").split(", "))
    assert psi[i, j] == psi.min() < 0.0
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("psi0", [1.0, 0.0])
def test_series_clamp_counts_are_the_per_step_tally(psi0):
    # A flat film of uniform density at an end of [0, 1] stays put, and every
    # point of every stepped state is clamped.
    config = parse_config(
        f"""
        grid.nx = 16
        energy.kind = flory_huggins
        energy.chi = 0.3
        mobility.m_x = 2.0
        stepper.dt = 1e-5
        run.t_end = 4e-5
        run.record_every = 1
        initial.h = zero
        initial.psi = {psi0}
        """
    )
    result = simulate(config)
    model = config.energy
    mob = Mobilities(config.m_x, config.m_psi)
    stepper = StepperConfig(dt=config.dt)
    g = Grid(16, 16)
    s, total, expected = FlowState(0.0, g.zeros(), g.constant(psi0)), 0, [0]
    for _ in range(4):
        n = model.count_violations(s.psi.values)
        assert n > 0
        total += n
        s = step(evaluate(s, ModelVariant.FULL_COUPLED, mob, model), stepper)
        expected.append(total)
    assert [r.clamp_count for r in result.records] == expected == [0, 256, 512, 768, 1024]
    assert result.clamp_count == total
    assert np.all(result.state.psi.values == psi0)


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
        g, cache.hfrak, phi=ev.phi,
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


@pytest.mark.parametrize("variant, model", [VARIANT_MODELS[0], VARIANT_MODELS[2]])
def test_analytic_velocity_gradients_match_spectral_ones(variant, model):
    ev = evaluate(make_state(64), variant, MOB, model)
    v = ev.velocity()
    dv = tuple(d for c in v for d in gradient(ScalarField(ev.state.grid, c)))
    expected = _rhs_with_velocity_gradients(ev, model, dv)
    scale = np.abs(expected).max()
    assert np.abs(ev.rhs_psi - expected).max() <= 1e-9 * scale
    # The velocity terms are not negligible on this state.
    assert np.abs(v[0]).max() > 1e-2


@pytest.mark.parametrize(
    "variant, model, state, clamps",
    [
        (*VARIANT_MODELS[0], make_state(32), False),
        (*VARIANT_MODELS[2], make_state(32), False),
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
    assert np.abs(ev.velocity()[0]).max() > 1e-2
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


@pytest.mark.parametrize("on", [False, True], ids=["inline", "paired"])
def test_evaluation_keeps_no_second_derivatives(pairing, on):
    # The slopes of h share a block only with the geometry the cache keeps:
    # paired, the one (hx, hy, g_det, hfrak) block whose last two rows held
    # h's spectrum, inline a block of their own.  The slopes of psi share a
    # block only with arrays the evaluation keeps, whose rows held psi's
    # second derivatives until the rates overwrote them.  So the three
    # second derivatives of h and of psi are freed when it returns.  The
    # block's last row is phi; a normal-only evaluation has none.
    pairing(on)
    state = make_state(16)
    for variant, model in VARIANT_MODELS:
        ev = evaluate(state, variant, MOB, model)
        cache = ev.cache
        geometry = (cache.hx, cache.hy, cache.g_det, cache.hfrak)[: 4 if on else 2]
        block = cache.hx.base
        assert block is not None and block.shape[0] == len(geometry), variant
        assert all(np.shares_memory(a, block[i]) for i, a in enumerate(geometry)), variant
        rows = (ev.psi_x, ev.psi_y, ev.f, ev.fpp, ev.dth, ev.rhs_psi, ev.phi)
        block = ev.psi_x.base
        assert block is not None and block.shape[0] == len(rows), variant
        assert (ev.phi is None) == (variant is ModelVariant.NORMAL_ONLY)
        assert all(
            np.shares_memory(row, block[i]) for i, row in enumerate(rows) if row is not None
        ), variant


def test_full_imex_step_transform_budget(calls):
    # The derivatives of h and of psi transform one field forward and five
    # back each (the slopes as a pair, then the second derivatives as a
    # triple), and each damped increment one field each way; the velocity
    # divergence is analytic.
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
def test_paired_step_transforms_the_same_fields(calls, pairing, variant):
    # A step transforms the same fields on and off.  Paired, each of the two
    # fields whose derivatives are transformed at once has two half spectra
    # that need not be adjacent, and inverts its five derivatives one at a
    # time instead of as a pair and a triple.
    state = make_state(16)
    model = FloryHuggins(1.0, 0.75, 0.0)
    made = []
    for on in (False, True):
        pairing(on)
        calls.transforms.clear()
        step(evaluate(state, variant, MOB, model), StepperConfig(dt=1e-4))
        made.append(collections.Counter(calls.transforms))
    assert made[0] == {("forward", 1): 4, ("inverse", 1): 2, ("inverse", 2): 2, ("inverse", 3): 2}
    assert made[1] == {("forward", 1): 4, ("inverse", 1): 12}
    assert pairing.helper_calls == 3


# ---------------------------------------------------------------------------
# Working set


def _numpy_bytes():
    """Bytes of the numpy array data alive now."""
    numpy_only = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    return sum(t.size for t in tracemalloc.take_snapshot().filter_traces([numpy_only]).traces)


@pytest.mark.parametrize("variant, model", VARIANT_MODELS)
def test_evaluation_works_in_the_grid_work_arrays(variant, model):
    # On a warm state, an evaluation allocates the 11 full-grid arrays it
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
    assert kept <= 11 * array_bytes
    assert peak - start <= 15 * array_bytes
    assert peak_step - start_step <= 3 * array_bytes


def _numpy_peak(run):
    """``run()``, and the most bytes of numpy array data that were alive at a
    return from a function of ``gradflow`` on this thread while it ran, as
    tracemalloc traces them.  A temporary that lives only between two such
    returns is not seen.  Where all traced memory is at most the peak so far,
    numpy's share is too, and it is not counted."""
    peak = 0

    def sample(frame, event, arg):
        nonlocal peak
        if (
            event == "return"
            and "gradflow" in frame.f_code.co_filename
            and tracemalloc.get_traced_memory()[0] > peak
        ):
            peak = max(peak, _numpy_bytes())

    tracemalloc.start()
    sys.setprofile(sample)
    try:
        result = run()
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("on", [False, True], ids=["inline", "paired"])
def test_a_run_keeps_its_working_set(pairing, on):
    # At its peak a run holds the grid's vectors, its five real work arrays,
    # two states (the last valid one and the one a step makes), the eleven
    # arrays of an evaluation, and the half spectra of the transforms: three
    # inline, and one paired, where every other spectrum lives in rows that
    # are idle at the time.  Paired, a sample may also see the small
    # temporaries of the helper thread's current call (a reduction's
    # result, a negated wavenumber vector): 1 KiB, where one more half
    # spectrum would be 8.5 KiB.
    pairing(on)
    config = parse_config(
        """
        grid.nx = 32
        energy.kind = flory_huggins
        stepper.dt = 1e-4
        run.t_end = 3e-4
        run.record_every = 3
        initial.h_amplitude = 0.3
        initial.psi = 0.25
        """
    )
    result, peak = _numpy_peak(lambda: simulate(config))
    assert not result.aborted and len(result.records) == 2
    held = [a for v in vars(Grid(32, 32)).values() for a in (v if isinstance(v, tuple) else (v,))]
    vectors = sum(a.nbytes for a in held if isinstance(a, np.ndarray))
    array, half_spectrum = 32 * 32 * 8, 32 * 17 * 16
    spectra = 1 if on else 3
    assert peak <= vectors + (5 + 2 * 2 + 11) * array + spectra * half_spectrum + 1024


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
    """The bytes of every array of an evaluation, of its velocity and of the
    state it steps to, with its coefficients and clamp count."""
    arrays = (
        ev.psi_x, ev.psi_y, ev.f, ev.fpp, ev.dth, ev.velocity(), ev.rhs_psi,
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
            # The clamping state lies outside [0, 1], and so does its step;
            # an unbounded domain lets the step return its fields.
            ev = dataclasses.replace(ev, domain=(-np.inf, np.inf))
            runs.append(_fingerprint(ev, step(ev, stepper)))
        assert runs[0] == runs[1], variant
    assert pairing.helper_calls == 2 * 3  # per state: psi's derivatives, a half, an increment


def test_paired_evaluation_keeps_its_working_set(pairing):
    # Paired, the derivatives of psi land in the arrays the evaluation keeps,
    # and each half of the rate algebra works in its rows of the work arrays.
    # The step's two solves may hold numpy's cast buffers at once, so its
    # bound is one array above the one-thread bound.
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
    assert kept <= 11 * array_bytes
    assert peak - start <= 15 * array_bytes
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


_PAIRED_RUN = """
import sys, threading
import numpy as np
from gradflow import FloryHuggins, FlowState, Grid, ModelVariant, Mobilities, StepperConfig
from gradflow import evaluate, spectral, step

spectral._CORES, spectral._PAIR_POINTS = 2, 0
g = Grid(16, 16)
psi = g.from_function(lambda x, y: 0.5 + 0.1 * np.sin(x) * np.cos(y))
state = FlowState(0.0, g.from_function(lambda x, y: 0.3 * np.sin(x) * np.sin(y)), psi)
ev = evaluate(state, ModelVariant.FULL_COUPLED, Mobilities(2.0, 1.0), FloryHuggins())
assert step(ev, StepperConfig(dt=1e-4)).step_index == 1
helpers = [t for t in threading.enumerate() if t.name == "gradflow-pair"]
print(*sorted({"concurrent.futures", "logging"} & set(sys.modules)), "|", len(helpers),
      all(t.daemon for t in helpers))
"""


def test_a_paired_run_loads_no_executor_and_exits():
    # A fresh process, so that no other test has loaded the modules.  The
    # helper is one daemon thread, which does not hold the process at exit.
    src = str(Path(gradflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _PAIRED_RUN],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout.split()) == (0, ["|", "1", "True"]), done.stderr
