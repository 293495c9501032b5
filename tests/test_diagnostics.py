"""Observable records, convergence harness, and variant comparison."""

import math
from dataclasses import replace

import numpy as np
import pytest

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
    Scheme,
    SolverAbort,
    StepperConfig,
    build_cache,
    compare_variants,
    convergence_sweep,
    covariant_norm_sq,
    evaluate,
    parse_config,
    record,
    simulate,
    step,
    surface_integral,
)
from gradflow.runner import CSV_HEADER, _csv_row
from spectral_reference import total_energy

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
    dth, v, q = ev.dth, ev.velocity(), ev.flux()
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


def test_record_at_the_time_of_prev_has_no_energy_rate():
    # Two records of one instant span no time: the second has no backward
    # difference, as the first record has none, and keeps its mass error.
    ev = evaluate(curved_state(16), ModelVariant.FULL_COUPLED, MOB, FloryHuggins(1.0, 0.75, 0.0))
    first = record(ev)
    again = record(ev, first)
    assert again.dissipation_lhs is None
    assert again.mass_error == 0.0
    assert replace(again, dissipation_lhs=None) == first


@pytest.mark.parametrize(
    "variant, model",
    [
        (ModelVariant.FULL_COUPLED, FloryHuggins(1.0, 0.75, 0.0)),
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
    with pytest.raises(ValueError, match=">= 3"):
        convergence_sweep(make_config(), [1e-3, 5e-4])


def test_sweep_checks_every_ladder_point_before_the_first_run(tmp_path, monkeypatch):
    out = tmp_path / "sweep"
    with pytest.raises(ConfigError, match=r"^key 'stepper.dt' must divide run.t_end \(0.01 / 0.003 "):
        convergence_sweep(make_config(), [3e-3, 1.5e-3, 7e-4], out_dir=out)

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("gradflow.runner.simulate", no_run)
    with pytest.raises(ConfigError, match=r"\(0.01 / 0.0007 = "):
        convergence_sweep(make_config(), [1e-3, 5e-4, 7e-4], out_dir=out)
    assert not out.exists()


def test_sweep_rejects_unknown_quantity():
    with pytest.raises(ValueError, match="quantity"):
        convergence_sweep(make_config(), [1e-3, 5e-4, 2.5e-4], "psi_range")


def test_sweep_static_flow_reports_exact_zeros():
    cfg = make_config(energy=Linear(1.0), record_every=2)
    rows = convergence_sweep(cfg, [1e-3, 5e-4, 2.5e-4], "mass_error")
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
    rows = convergence_sweep(base, [8e-5, 4e-5, 2e-5], "trajectory_error")
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
    result = compare_variants(cfg)
    assert result.energy_ordered
    assert result.final_range_smaller
    assert len(result.full.records) == len(result.normal.records)
    for rf, rn in zip(result.full.records, result.normal.records):
        assert rf.t == rn.t
        assert rf.energy == pytest.approx(rn.energy, rel=1e-14)


def test_compare_variants_records_cover_the_run():
    cfg = make_config(energy=Constant(1.0), dt=1e-3, record_every=3)
    result = compare_variants(cfg)
    times = [r.t for r in result.full.records]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(cfg.t_end, rel=1e-9)
    assert all(b > a for a, b in zip(times, times[1:]))


def test_harnesses_refuse_an_aborted_run(tmp_path):
    # Explicit Euler at dt = 0.05 takes the density out of [0, 1] at step 3.
    cfg = make_config(
        m_x=5.0, scheme=Scheme.EXPLICIT_EULER, dt=0.05, t_end=0.5, record_every=1
    )
    aborted = simulate(cfg)
    assert aborted.aborted
    out = tmp_path / "out"
    with pytest.raises(SolverAbort) as info:
        compare_variants(cfg, out_dir=out)
    assert str(info.value) == f"the full variant aborted: {aborted.abort_message}"
    last = info.value.last_valid
    assert (last.step_index, last.t) == (aborted.state.step_index, aborted.state.t)
    assert last.h.values.tobytes() == aborted.state.h.values.tobytes()
    assert aborted.abort_message.startswith("density ") and aborted.state.step_index == 2
    with pytest.raises(SolverAbort, match=r"^the run at dt = 0\.05 aborted: density .* after step 3 "):
        convergence_sweep(cfg, [0.05, 0.025, 0.0125], "trajectory_error", out_dir=out)
    assert not out.exists()


def test_run_results_compare_by_identity():
    # Two runs are unequal objects; comparing them must not compare arrays.
    cfg = make_config(energy=Constant(1.0))
    first, second = simulate(cfg), simulate(cfg)
    assert first == first and first != second
    result = compare_variants(cfg)
    assert result == result and result != compare_variants(cfg)


# ---------------------------------------------------------------------------
# Harness outputs


def test_harnesses_write_their_results_only_to_out_dir(tmp_path, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    cfg, dts = make_config(), [1e-3, 5e-4, 2.5e-4]

    rows = convergence_sweep(cfg, dts, out_dir=tmp_path / "sweep")
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "dt,mass_error,observed_order,dissipation_mismatch"
    written = [tuple(float(c) if c else None for c in line.split(",")) for line in lines[1:]]
    assert written == [
        (r.parameter, r.error, r.observed_order, r.dissipation_mismatch) for r in rows
    ]
    assert written[0][2] is None and None not in written[1]

    result = compare_variants(cfg, out_dir=tmp_path / "compare")
    out = tmp_path / "compare"
    for name, records in (("full", result.full.records), ("normal", result.normal.records)):
        lines = (out / f"series_{name}.csv").read_text().splitlines()
        assert lines == [CSV_HEADER, *map(_csv_row, records)]
    assert (out / "compare.txt").read_text() == (
        "transient_window = 0.05\n"
        f"energy_ordered = {str(result.energy_ordered).lower()}\n"
        f"final_range_smaller = {str(result.final_range_smaller).lower()}\n"
    )

    # Without an output directory neither harness writes anything.
    assert convergence_sweep(cfg, dts) == rows
    again = compare_variants(cfg)
    assert (again.full.records, again.normal.records) == (result.full.records, result.normal.records)
    assert (again.energy_ordered, again.final_range_smaller, again.transient_window) == (
        result.energy_ordered, result.final_range_smaller, result.transient_window
    )
    assert list(cwd.iterdir()) == []


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
