"""Observable records, convergence harness, and variant comparison."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gradflow import (
    Constant,
    FloryHuggins,
    FlowState,
    Grid,
    Linear,
    Mobilities,
    ModelVariant,
    Quadratic,
    Scheme,
    StepperConfig,
    build_cache,
    compare_variants,
    convergence_sweep,
    covariant_norm_sq,
    evaluate,
    parse_config,
    record,
    step,
    surface_integral,
    total_energy,
)

BASE_DOC = """
grid.nx = 16
energy.kind = flory_huggins
stepper.dt = 1e-3
run.t_end = 1e-2
run.record_every = 5
initial.psi = 0.25
"""


def make_config(**overrides):
    return replace(parse_config(BASE_DOC), **overrides)


def curved_state(n=32):
    g = Grid(n, n)
    h = g.from_function(lambda x, y: 0.3 * np.sin(x) * np.cos(y))
    psi = g.from_function(lambda x, y: 0.4 + 0.1 * np.sin(x + 0.2) * np.sin(y))
    return FlowState(t=0.0, h=h, psi=psi)


MOB = Mobilities(2.0, 1.0)


# ---------------------------------------------------------------------------
# Single records


def test_record_basic_observables():
    state = curved_state()
    model = FloryHuggins(1.0, 0.75, 0.0)
    rec = record(evaluate(state, ModelVariant.FULL_COUPLED, MOB, model))
    cache = build_cache(state.h)
    assert rec.t == 0.0
    psi = state.psi.values
    assert rec.energy == pytest.approx(total_energy(model, psi, cache), rel=1e-14)
    assert rec.mass == pytest.approx(surface_integral(psi, cache), rel=1e-14)
    assert rec.mass_error == 0.0
    assert rec.dissipation_lhs is None
    assert rec.h_min == state.h.values.min() and rec.h_max == state.h.values.max()
    assert rec.psi_min == psi.min() and rec.psi_max == psi.max()
    assert rec.clamp_count == 0


def test_record_mass_of_uniform_density():
    g = Grid(32, 32)
    state = FlowState(0.0, g.from_function(lambda x, y: 0.2 * np.sin(2 * x) * np.sin(y)), g.constant(0.25))
    rec = record(evaluate(state, ModelVariant.FULL_COUPLED, MOB, Constant(1.0)))
    cache = build_cache(state.h)
    area = surface_integral(g.constant(1.0).values, cache)
    assert rec.mass == pytest.approx(0.25 * area, rel=1e-13)


def test_record_dissipation_rhs_is_negative_and_matches_assembly():
    state = curved_state()
    model = FloryHuggins(1.0, 0.75, 0.0)
    rec = record(evaluate(state, ModelVariant.FULL_COUPLED, MOB, model))
    assert rec.dissipation_rhs < 0.0

    cache = build_cache(state.h)
    ev = evaluate(state, ModelVariant.FULL_COUPLED, MOB, model)
    dth, v, q = ev.dth, ev.v, ev.flux()
    v_sq = covariant_norm_sq(v, cache) + dth**2 / cache.g_det
    expected = -(
        MOB.m_x * surface_integral(v_sq, cache)
        + MOB.m_psi * surface_integral(covariant_norm_sq(q, cache), cache)
    )
    assert rec.dissipation_rhs == pytest.approx(expected, rel=1e-14)


def test_record_zero_dissipation_for_linear_density():
    state = curved_state()
    rec = record(evaluate(state, ModelVariant.FULL_COUPLED, MOB, Linear(2.0)))
    assert rec.dissipation_rhs == 0.0


def test_record_chained_mass_error_and_energy_rate():
    state = curved_state(24)
    model = FloryHuggins(1.0, 0.75, 0.0)
    stepper = StepperConfig(dt=1e-4)
    rec0 = record(evaluate(state, ModelVariant.FULL_COUPLED, MOB, model))
    s = state
    for _ in range(10):
        s = step(evaluate(s, ModelVariant.FULL_COUPLED, MOB, model), stepper)
    rec1 = record(evaluate(s, ModelVariant.FULL_COUPLED, MOB, model), prev=rec0)
    assert rec1.dissipation_lhs == pytest.approx(
        (rec1.energy - rec0.energy) / (s.t - 0.0), rel=1e-12
    )
    assert rec1.mass_error == pytest.approx(rec1.mass - rec0.mass, abs=1e-15)
    # chained through a third record, the error stays relative to record 0
    for _ in range(10):
        s = step(evaluate(s, ModelVariant.FULL_COUPLED, MOB, model), stepper)
    rec2 = record(evaluate(s, ModelVariant.FULL_COUPLED, MOB, model), prev=rec1)
    assert rec2.mass_error == pytest.approx(rec2.mass - rec0.mass, abs=1e-15)


@pytest.mark.parametrize(
    "variant, model",
    [
        (ModelVariant.FULL_COUPLED, FloryHuggins(1.0, 0.75, 0.0)),
        (ModelVariant.VELOCITY_SUBSTITUTED, FloryHuggins(1.0, 0.75, 0.0)),
        (ModelVariant.NORMAL_ONLY, FloryHuggins(1.0, 0.75, 0.0)),
        (ModelVariant.MATERIAL_GAUGE_QUADRATIC, Quadratic(1.5)),
    ],
)
def test_record_from_the_step_evaluation_is_identical(variant, model):
    # A record read from the evaluation a step has already consumed equals
    # the record of a fresh evaluation: the step leaves it untouched.
    state = curved_state(24)
    stepper = StepperConfig(dt=1e-4)
    rec0 = record(evaluate(state, variant, MOB, model))
    s = step(evaluate(state, variant, MOB, model), stepper)
    ev = evaluate(s, variant, MOB, model)
    step(ev, stepper)
    assert record(ev, rec0, 3) == record(evaluate(s, variant, MOB, model), rec0, 3)


def test_record_clamp_count_passthrough():
    state = curved_state(16)
    rec = record(evaluate(state, ModelVariant.FULL_COUPLED, MOB, Constant(1.0)), clamp_count=7)
    assert rec.clamp_count == 7


# ---------------------------------------------------------------------------
# Convergence sweeps


def test_sweep_rejects_short_ladders():
    cfgs = [make_config(dt=1e-3), make_config(dt=5e-4)]
    with pytest.raises(ValueError, match=">= 3"):
        convergence_sweep(cfgs)


def test_sweep_rejects_mismatched_t_end():
    cfgs = [make_config(dt=1e-3), make_config(dt=5e-4), make_config(dt=2.5e-4, t_end=0.02)]
    with pytest.raises(ValueError, match="t_end"):
        convergence_sweep(cfgs)


def test_sweep_rejects_mismatched_grids():
    cfgs = [
        make_config(nx=8, ny=8, dt=1e-3),
        make_config(nx=16, ny=16, dt=5e-4),
        make_config(nx=8, ny=8, dt=2.5e-4),
    ]
    with pytest.raises(ValueError, match=r"grid.*\(8, 8, .*\(16, 16, "):
        convergence_sweep(cfgs, "trajectory_error")


def test_sweep_rejects_unknown_quantity():
    cfgs = [make_config(dt=1e-3), make_config(dt=5e-4), make_config(dt=2.5e-4)]
    with pytest.raises(ValueError, match="quantity"):
        convergence_sweep(cfgs, "psi_range")


def test_sweep_static_flow_reports_exact_zeros():
    cfgs = [
        make_config(energy=Linear(1.0), dt=d, record_every=2)
        for d in (1e-3, 5e-4, 2.5e-4)
    ]
    rows = convergence_sweep(cfgs, "mass_error")
    assert [r.parameter for r in rows] == [1e-3, 5e-4, 2.5e-4]
    for row in rows:
        assert row.error == 0.0
        assert row.observed_order is None  # undefined on exact zeros
        assert row.dissipation_mismatch is None  # zero dissipation


def test_sweep_trajectory_error_is_first_order():
    base = parse_config(
        """
        grid.nx = 32
        energy.kind = flory_huggins
        mobility.m_x = 5.0
        stepper.dt = 8e-5
        stepper.scheme = explicit_euler
        run.t_end = 0.01
        run.record_every = 1000000
        initial.h_amplitude = 0.5
        initial.psi = 0.25
        """
    )
    cfgs = [replace(base, dt=d) for d in (8e-5, 4e-5, 2e-5)]
    rows = convergence_sweep(cfgs, "trajectory_error")
    assert rows[0].observed_order is None
    for row in rows[1:]:
        # first order in dt; the finite reference run biases the ratio high
        assert 0.95 <= row.observed_order <= 1.35, rows
    assert rows[0].error > rows[1].error > rows[2].error > 0.0


# ---------------------------------------------------------------------------
# Variant comparison


def test_compare_variants_degenerate_equality():
    # constant f: tangential velocity vanishes, both variants coincide.
    cfg = make_config(energy=Constant(1.0), dt=1e-3, record_every=3)
    result = compare_variants(cfg, transient_window=0.002)
    assert result.energy_ordered
    assert result.final_range_smaller
    assert len(result.records_full) == len(result.records_normal)
    for rf, rn in zip(result.records_full, result.records_normal):
        assert rf.t == rn.t
        assert rf.energy == pytest.approx(rn.energy, rel=1e-14)
    assert result.transient_window == 0.002


def test_compare_variants_records_cover_the_run():
    cfg = make_config(energy=Constant(1.0), dt=1e-3, record_every=3)
    result = compare_variants(cfg)
    times = [r.t for r in result.records_full]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(cfg.t_end, rel=1e-9)
    assert all(b > a for a, b in zip(times, times[1:]))


# ---------------------------------------------------------------------------
# Flat-surface reduction


def test_flat_surface_stays_flat_and_conserves_mass():
    g = Grid(64, 64)
    psi0 = g.from_function(
        lambda x, y: 0.4 + 0.1 * np.sin(x) * np.cos(y) + 0.05 * np.sin(2 * y + 0.3)
    )
    s = FlowState(0.0, g.zeros(), psi0)
    mob = Mobilities(1.0, 1.0)
    model = FloryHuggins(1.0, 0.75, 0.0)
    stepper = StepperConfig(dt=1e-4)
    m0 = surface_integral(psi0.values, build_cache(s.h))
    u_prev = total_energy(model, psi0.values, build_cache(s.h))
    for _ in range(100):
        s = step(evaluate(s, ModelVariant.FULL_COUPLED, mob, model), stepper)
    assert np.all(s.h.values == 0.0)  # no normal force on a flat surface
    cache = build_cache(s.h)
    psi1 = s.psi.values
    m1 = surface_integral(psi1, cache)
    assert abs(m1 - m0) <= 1e-12 * abs(m0)
    # plain diffusion: extrema contract and the energy decreases
    assert psi1.max() < psi0.values.max()
    assert psi1.min() > psi0.values.min()
    assert total_energy(model, psi1, cache) < u_prev
