"""End-to-end acceptance suite.

One test per advertised guarantee of the solver, each printing a PASS line
(visible with ``pytest -s``):

1.  The bundled relaxation experiment dissipates energy monotonically,
    conserves mass to 1e-4 relative, and flattens the film; the
    half-resolution variant completes in under a minute.
2.  The fully coupled flow relaxes at least as fast as the normal-only
    flow and ends with a narrower density range.
3.  The mass-conservation error converges at first order in dt.
4.  The two sides of the energy-dissipation identity agree to a mismatch
    that shrinks by >= 1.5x per dt halving.
5.  Special-case exactness: linear density freezes the state, constant
    density kills the tangential velocity and conserves mass through the
    transport identity, and a small single-mode film decays at the
    linearized rate.
6.  The material-gauge quadratic variant can raise the energy while its
    standard-gauge twin is monotone.
7.  Every geometry operator converges at 4th order against an independent
    finite-difference oracle and reduces exactly on a flat surface; so do
    the kernels and the height rate and tangential velocity that the
    stepper's evaluation forms, and the density rate it uses, for every
    variant.
8.  The density variation matches central differences of the energy for
    every preset, and the substituted single-equation form reproduces the
    coupled trajectory.
9.  A whole run converges spectrally in space: the final fields of a 16^2
    to 64^2 ladder approach a 96^2 run by a set factor per refinement.
    The mass error has a spatial floor at 16^2 that a smaller dt does not
    move, and at 32^2 it is first order in dt down to far below that floor.

The heavier reference-resolution (128^2) runs are marked ``slow``; enable
them with ``pytest --runslow``.
"""

import math
from dataclasses import replace
from pathlib import Path

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
    ScalarField,
    Scheme,
    StepperConfig,
    build_cache,
    compare_variants,
    convergence_sweep,
    covariant_norm_sq,
    derivatives,
    evaluate,
    parse_config,
    simulate,
    step,
    surface_integral,
)
from gradflow.geometry import covariant_square, hessian_trace

import oracles
from spectral_reference import (
    area_element,
    div_comp_material,
    gradient,
    integrate,
    laplace_beltrami,
    mean_curvature,
    total_energy,
    truesdell_rate,
    unit_normal,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load_config(name):
    return parse_config((CONFIG_DIR / name).read_text())


@pytest.fixture(scope="module")
def compare_64():
    # Its fully coupled run is the run of relaxation_64.cfg itself (the
    # config's variant), byte for byte: acceptance 1 checks that run.
    return compare_variants(load_config("relaxation_64.cfg"), transient_window=0.05)


@pytest.fixture(scope="module")
def ladder_128():
    base = replace(load_config("relaxation_128.cfg"), t_end=0.05, record_every=10**9)
    return convergence_sweep(base, [4e-5, 2e-5, 1e-5], quantity="mass_error")


def assert_relaxation_properties(result):
    records = result.records
    assert not result.aborted
    u0 = records[0].energy
    tol = 1e-8 * abs(u0)
    for prev, cur in zip(records, records[1:]):
        assert cur.energy <= prev.energy + tol, (prev.t, cur.t, prev.energy, cur.energy)
    mass0 = records[0].mass
    assert abs(records[-1].mass_error) < 1e-4 * abs(mass0)
    ranges = [r.h_max - r.h_min for r in records]
    for prev, cur in zip(ranges, ranges[1:]):
        assert cur < prev, ranges
    assert records[-1].t == pytest.approx(result.config.t_end, rel=1e-9)


# ---------------------------------------------------------------------------
# 1. Reference relaxation experiment


def test_relaxation_dissipates_conserves_and_flattens(compare_64):
    relaxation_64 = compare_64.full
    assert relaxation_64.config == load_config("relaxation_64.cfg")
    assert_relaxation_properties(relaxation_64)
    assert relaxation_64.wall_time < 60.0
    print(
        "ACCEPTANCE 1 PASS: 64^2 relaxation run dissipates energy at every "
        f"record, final relative mass error "
        f"{abs(relaxation_64.records[-1].mass_error / relaxation_64.records[0].mass):.2e}, "
        f"film range shrinks monotonically, wall time {relaxation_64.wall_time:.1f} s"
    )


@pytest.mark.slow
def test_relaxation_reference_resolution():
    result = simulate(load_config("relaxation_128.cfg"))
    assert_relaxation_properties(result)
    print(
        "ACCEPTANCE 1 PASS (reference resolution): 128^2 relaxation run "
        f"dissipates and conserves; wall time {result.wall_time:.1f} s"
    )


# ---------------------------------------------------------------------------
# 2. Fully coupled relaxes at least as fast as normal-only


def test_full_coupling_accelerates_relaxation(compare_64):
    result = compare_64
    assert result.energy_ordered
    assert result.final_range_smaller
    rf, rn = result.full.records[-1], result.normal.records[-1]
    print(
        "ACCEPTANCE 2 PASS: coupled energy below normal-only past the "
        f"transient; final density ranges {rf.psi_max - rf.psi_min:.3e} (full) "
        f"vs {rn.psi_max - rn.psi_min:.3e} (normal-only)"
    )


@pytest.mark.slow
def test_full_coupling_accelerates_relaxation_reference_resolution():
    result = compare_variants(load_config("relaxation_128.cfg"), transient_window=0.05)
    assert result.energy_ordered
    assert result.final_range_smaller
    print("ACCEPTANCE 2 PASS (reference resolution)")


# ---------------------------------------------------------------------------
# 3. First-order convergence of the conservation error


def test_mass_error_converges_at_first_order(ladder_128):
    orders = [row.observed_order for row in ladder_128[1:]]
    assert all(order is not None for order in orders)
    for order in orders:
        assert 0.8 <= order <= 1.2, ladder_128
    print(
        "ACCEPTANCE 3 PASS: |mass error| orders over dt ladder "
        f"{[f'{o:.3f}' for o in orders]}"
    )


# ---------------------------------------------------------------------------
# 4. Dissipation-identity mismatch shrinks with dt


def test_dissipation_identity_mismatch_shrinks(ladder_128):
    mismatches = [row.dissipation_mismatch for row in ladder_128]
    assert all(m is not None and m > 0.0 for m in mismatches)
    ratios = [a / b for a, b in zip(mismatches, mismatches[1:])]
    for ratio in ratios:
        assert ratio >= 1.5, (mismatches, ratios)
    print(
        "ACCEPTANCE 4 PASS: dissipation mismatches "
        f"{[f'{m:.2e}' for m in mismatches]}, halving ratios "
        f"{[f'{r:.2f}' for r in ratios]}"
    )


# ---------------------------------------------------------------------------
# 5. Special-case exactness


def test_special_case_exactness():
    # (a) linear density: zero tension and zero flux freeze the state
    g = Grid(32, 32)
    h0 = g.from_function(lambda x, y: 0.3 * np.sin(x) * np.cos(y) + 0.1 * np.sin(2 * y))
    psi0 = g.from_function(lambda x, y: 0.4 + 0.2 * np.sin(x + 0.3) * np.sin(y))
    s = FlowState(0.0, h0, psi0)
    mob = Mobilities(1.0, 1.0)
    stepper = StepperConfig(dt=1e-3)
    for _ in range(1000):
        s = step(evaluate(s, ModelVariant.FULL_COUPLED, mob, Linear(2.0)), stepper)
    assert np.abs(s.h.values - h0.values).max() <= 1e-14
    assert np.abs(s.psi.values - psi0.values).max() <= 1e-14

    # (b) constant density: no tangential velocity, and the transport
    # identity conserves the surface mass of psi
    g = Grid(128, 128)
    state = FlowState(
        0.0,
        g.from_function(lambda x, y: np.sin(2 * x) * np.sin(2 * y)),
        g.from_function(lambda x, y: 0.3 + 0.1 * np.sin(x) * np.sin(y)),
    )
    mob = Mobilities(5.0, 1.0)
    model = Constant(1.0)
    cache = build_cache(state.h)
    ev = evaluate(state, ModelVariant.FULL_COUPLED, mob, model)
    v, dth, rhs = ev.v, ev.dth, ev.rhs_psi
    assert np.all(v == 0.0)
    dthx, dthy = gradient(ScalarField(g, dth))
    hx, hy, sqrt_g = cache.hx, cache.hy, area_element(cache)
    mass_rate = integrate(
        ScalarField(
            g, rhs * sqrt_g + state.psi.values * (hx * dthx + hy * dthy) / sqrt_g
        )
    )
    assert abs(mass_rate) <= 1e-10

    # (c) small-amplitude single mode decays at the linearized rate
    g = Grid(32, 32)
    amp0 = 0.01
    s = FlowState(0.0, g.from_function(lambda x, y: amp0 * np.sin(2 * x)), g.constant(0.5))
    c, m_x, dt, t_end = 1.0, 1.0, 1e-4, 0.1
    stepper = StepperConfig(dt=dt)
    mob = Mobilities(m_x, 1.0)
    for _ in range(round(t_end / dt)):
        s = step(evaluate(s, ModelVariant.FULL_COUPLED, mob, Constant(c)), stepper)
    amp = np.abs(s.h.values).max()
    expected = amp0 * math.exp(-4.0 * c * t_end / m_x)
    rel_err = abs(amp - expected) / expected
    assert rel_err < 0.05

    print(
        "ACCEPTANCE 5 PASS: linear density frozen over 1000 steps; constant "
        f"density has zero tangential velocity and mass rate {mass_rate:.2e}; "
        f"single-mode decay within {rel_err:.2e} of exp(-4ct/m_x)"
    )


# ---------------------------------------------------------------------------
# 6. Gauge choice decides energy dissipation


def test_material_gauge_can_raise_energy_while_twin_dissipates():
    g = Grid(64, 64)
    h0 = g.from_function(lambda x, y: 0.05 * np.sin(2 * x) * np.sin(2 * y))
    psi0 = g.from_function(lambda x, y: 0.5 + 0.02 * np.sin(x) * np.sin(y))
    mob = Mobilities(m_x=0.01, m_psi=1.0)
    model = Quadratic(1.0)
    stepper = StepperConfig(dt=1e-6)

    def energies(variant):
        s = FlowState(0.0, h0, psi0)
        out = [total_energy(model, s.psi.values, build_cache(s.h))]
        for i in range(1, 201):
            s = step(evaluate(s, variant, mob, model), stepper)
            if i % 20 == 0:
                out.append(total_energy(model, s.psi.values, build_cache(s.h)))
        return out

    u_gauge = energies(ModelVariant.MATERIAL_GAUGE_QUADRATIC)
    u_twin = energies(ModelVariant.FULL_COUPLED)

    gauge_ups = sum(b > a for a, b in zip(u_gauge, u_gauge[1:]))
    assert gauge_ups >= 1, u_gauge
    tol = 1e-12 * abs(u_twin[0])
    for a, b in zip(u_twin, u_twin[1:]):
        assert b <= a + tol, u_twin

    print(
        "ACCEPTANCE 6 PASS: material-gauge run raises the energy on "
        f"{gauge_ups}/10 recorded intervals (total {u_gauge[-1] - u_gauge[0]:+.2e}) "
        f"while the standard-gauge twin is monotone ({u_twin[-1] - u_twin[0]:+.2e})"
    )


# ---------------------------------------------------------------------------
# 7. Geometry operators against the finite-difference oracle


def test_geometry_operators_converge_against_fd_oracle():
    # The operators of spectral_reference, and what evaluate runs: its
    # height rate and velocity, and its kernels on the derivatives it holds.
    model, mob = FloryHuggins(1.0, 0.75, 0.4), Mobilities(m_x=2.0, m_psi=1.0)
    per_op_errors: dict[str, list[float]] = {}
    for n in (16, 32, 64, 128):
        g = Grid(n, n)
        dx = dy = g.lx / n
        xg, yg = np.meshgrid(g.x, g.y, indexing="ij")
        h = oracles.h_fn(xg, yg)
        f = oracles.f_fn(xg, yg)
        psi = oracles.psi_fn(xg, yg)
        dtpsi = oracles.dtpsi_fn(xg, yg)
        vx, vy = oracles.vx_fn(xg, yg), oracles.vy_fn(xg, yg)
        dth = oracles.dth_fn(xg, yg)
        geo = oracles.FdGeometry(h, dx, dy)

        v = np.stack((vx, vy))
        cache = build_cache(g.from_function(oracles.h_fn))
        psi_field = g.from_function(oracles.psi_fn)
        ev = evaluate(
            FlowState(0.0, g.from_function(oracles.h_fn), psi_field),
            ModelVariant.FULL_COUPLED, mob, model,
        )
        f0, fp, fpp, _ = model.derivatives(psi)
        sigma = f0 - psi * fp
        px, py, pxx, pxy, pyy = derivatives(psi_field)
        p_dh = px * cache.hx + py * cache.hy

        checks = {
            "metric_determinant": (cache.g_det, geo.g),
            "curvature_density": (cache.hfrak, geo.hfrak),
            "mean_curvature": (mean_curvature(cache), geo.mean_curv),
            "unit_normal_z": (unit_normal(cache)[2], geo.normal[2]),
            "laplace_beltrami": (
                laplace_beltrami(f, cache),
                oracles.fd_laplace_beltrami(f, geo),
            ),
            "covariant_grad_sq": (
                covariant_norm_sq(np.stack(gradient(g.from_function(oracles.f_fn))), cache),
                oracles.fd_covariant_grad_sq(f, geo),
            ),
            "covariant_norm_sq": (
                covariant_norm_sq(v, cache),
                oracles.fd_covariant_norm_sq(vx, vy, geo),
            ),
            "material_divergence": (
                div_comp_material(v, dth, cache),
                oracles.fd_div_comp_material(vx, vy, dth, geo),
            ),
            "truesdell_rate": (
                truesdell_rate(psi, dtpsi, v, dth, cache),
                oracles.fd_truesdell_rate(psi, dtpsi, vx, vy, dth, geo),
            ),
            "surface_integral": (
                surface_integral(f, cache),
                oracles.fd_surface_integral(f, geo, g.lx, g.ly),
            ),
            "height_rate": (ev.dth, geo.g * sigma * geo.hfrak / mob.m_x),
            "tangential_velocity": (
                ev.v,
                -psi * fpp * np.stack(geo.grad(psi)) / mob.m_x,
            ),
            "hessian_trace": (
                hessian_trace(pxx, pxy, pyy, cache.hx, cache.hy, cache.g_det),
                oracles.fd_hessian_trace(psi, geo),
            ),
            "covariant_square": (
                covariant_square(px, py, p_dh, cache.g_det),
                oracles.fd_covariant_grad_sq(psi, geo),
            ),
        }
        for name, (got, want) in checks.items():
            err = float(np.abs(np.asarray(got) - np.asarray(want)).max())
            per_op_errors.setdefault(name, []).append(err)

    final_orders = {}
    for name, errors in per_op_errors.items():
        orders = oracles.observed_orders(errors)
        # asymptotic rate from the finest pair; whole ladder must trend there
        assert orders[-1] >= 3.5, (name, errors, orders)
        assert min(orders) >= 3.0, (name, errors, orders)
        final_orders[name] = orders[-1]

    # flat-surface reductions collapse to the plain periodic calculus
    g = Grid(32, 32)
    cache = build_cache(g.zeros())
    f = g.from_function(oracles.f_fn)
    vx, vy = g.from_function(oracles.vx_fn), g.from_function(oracles.vy_fn)
    v = np.stack((vx.values, vy.values))
    _, _, fxx, fxy, fyy = derivatives(f)
    flat_lap = fxx + fyy
    assert np.abs(laplace_beltrami(f.values, cache) - flat_lap).max() < 1e-12
    trace = hessian_trace(fxx, fxy, fyy, cache.hx, cache.hy, cache.g_det)
    assert np.abs(trace - flat_lap).max() < 1e-12
    fx, fy = gradient(f)
    assert (
        np.abs(covariant_norm_sq(np.stack((fx, fy)), cache) - (fx**2 + fy**2)).max()
        < 1e-12
    )
    flat_div = gradient(vx)[0] + gradient(vy)[1]
    assert (
        np.abs(div_comp_material(v, g.zeros().values, cache) - flat_div).max() < 1e-12
    )
    assert abs(surface_integral(f.values, cache) - integrate(f)) < 1e-12
    assert np.all(cache.g_det == 1.0)
    assert np.abs(mean_curvature(cache)).max() < 1e-12

    print(
        "ACCEPTANCE 7 PASS: finest-pair orders "
        + ", ".join(f"{k}={v:.2f}" for k, v in sorted(final_orders.items()))
        + "; flat reductions exact"
    )


@pytest.mark.parametrize("variant", list(ModelVariant), ids=lambda v: v.value)
def test_density_rate_converges_against_fd_oracle(variant):
    """The density rate the stepper uses, on a curved surface: its Truesdell
    rate under the evaluated motion, minus the surface diffusion, both from
    the finite-difference oracle, vanishes at 4th order."""
    if variant is ModelVariant.MATERIAL_GAUGE_QUADRATIC:
        model = Quadratic(1.5)
    else:
        model = FloryHuggins(1.0, 0.75, 0.4)
    mob = Mobilities(m_x=2.0, m_psi=1.0)
    errors = []
    for n in (16, 32, 64, 128):
        g = Grid(n, n)
        xg, yg = np.meshgrid(g.x, g.y, indexing="ij")
        h, psi = oracles.h_fn(xg, yg), oracles.psi_fn(xg, yg)
        state = FlowState(0.0, g.from_function(oracles.h_fn), g.from_function(oracles.psi_fn))
        ev = evaluate(state, variant, mob, model)
        geo = oracles.FdGeometry(h, g.lx / n, g.ly / n)
        rate = oracles.fd_truesdell_rate(psi, ev.rhs_psi, *ev.v, ev.dth, geo)
        diffusion = (
            model.density(psi, 2) * oracles.fd_laplace_beltrami(psi, geo)
            + model.density(psi, 3) * oracles.fd_covariant_grad_sq(psi, geo)
        ) / mob.m_psi
        errors.append(float(np.abs(rate - diffusion).max()))
    orders = oracles.observed_orders(errors)
    assert orders[-1] >= 3.5, (errors, orders)
    assert min(orders) >= 3.0, (errors, orders)
    print(
        f"ACCEPTANCE 7 PASS ({variant.value}): density-rate residual orders "
        + ", ".join(f"{o:.2f}" for o in orders)
    )


# ---------------------------------------------------------------------------
# 8. Variational consistency and trajectory equivalence


def test_density_variation_and_trajectory_equivalence():
    # (a) central differences of the total energy against the density
    # variation, on a curved surface, for every preset
    g = Grid(32, 32)
    cache = build_cache(g.from_function(lambda x, y: 0.3 * np.sin(2 * x) * np.sin(y)))
    psi = g.from_function(lambda x, y: 0.35 + 0.1 * np.sin(x + 0.5) * np.cos(y - 0.3))
    phi = g.from_function(
        lambda x, y: 0.05 + 0.2 * np.cos(x + 0.3) * np.cos(2 * y - 0.4) + 0.1 * np.sin(y + 0.2)
    )

    def central(model, eps):
        up = total_energy(model, psi.values + eps * phi.values, cache)
        dn = total_energy(model, psi.values - eps * phi.values, cache)
        return (up - dn) / (2 * eps)

    def pairing(model):
        dpsi = model.derivatives(psi.values)[1]
        return surface_integral(dpsi * phi.values, cache)

    # constant: both sides vanish identically
    model = Constant(2.0)
    assert pairing(model) == 0.0
    assert abs(central(model, 1e-2)) < 1e-12

    # linear and quadratic: the central difference is exact in epsilon,
    # so only rounding separates the two sides
    for model in (Linear(1.5), Quadratic(2.0)):
        p = pairing(model)
        assert abs(central(model, 1e-2) - p) <= 1e-9 * abs(p)

    # logarithmic preset: genuine O(eps^2) quadrature error
    model = FloryHuggins(1.0, 0.75, 0.5)
    p = pairing(model)
    errors = [abs(central(model, eps) - p) for eps in (4e-2, 2e-2, 1e-2)]
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.1)
    assert errors[2] < 1e-4 * abs(p)

    # (b) the substituted single-equation form follows the coupled system
    base = replace(
        load_config("relaxation_128.cfg"),
        dt=1e-6,
        t_end=1e-4,
        scheme=Scheme.EXPLICIT_EULER,
        record_every=10**9,
    )
    full = simulate(replace(base, variant=ModelVariant.FULL_COUPLED))
    sub = simulate(replace(base, variant=ModelVariant.VELOCITY_SUBSTITUTED))
    assert full.state.step_index == sub.state.step_index == 100
    h_scale = np.abs(full.state.h.values).max()
    p_scale = np.abs(full.state.psi.values).max()
    h_diff = np.abs(full.state.h.values - sub.state.h.values).max() / h_scale
    p_diff = np.abs(full.state.psi.values - sub.state.psi.values).max() / p_scale
    assert h_diff <= 1e-6
    assert p_diff <= 1e-6

    print(
        "ACCEPTANCE 8 PASS: density variation matches central differences "
        f"for all presets (log-preset ratios {errors[0]/errors[1]:.2f}, "
        f"{errors[1]/errors[2]:.2f}); substituted-form trajectory agrees to "
        f"h {h_diff:.2e}, psi {p_diff:.2e} relative"
    )


# ---------------------------------------------------------------------------
# 9. Whole-run spatial convergence

SPATIAL_DOC = """
grid.nx = {n}
energy.kind = flory_huggins
mobility.m_x = 5.0
stepper.dt = 6.25e-5
run.t_end = 0.02
run.record_every = 1000
initial.h_amplitude = 0.5
initial.psi = 0.25
"""


def test_whole_run_converges_spectrally_in_space():
    # The interpolation is exact on band-limited fields, Nyquist modes included.
    def band_limited(x, y):
        return oracles.h_fn(x, y) + 0.1 * np.cos(8.0 * x) * np.cos(8.0 * y)

    exact = Grid(96, 96).from_function(band_limited).values
    coarse = oracles.fourier_interpolate(Grid(16, 16).from_function(band_limited).values, 96)
    assert np.abs(coarse - exact).max() < 1e-14

    # The 16^2 problem of scripts/output_digests.py, 320 steps at every nx.
    def final(n):
        result = simulate(parse_config(SPATIAL_DOC.format(n=n)))
        assert not result.aborted and result.state.step_index == 320
        return result.state

    reference = final(96)
    sizes = (16, 24, 32, 48, 64)
    errors = {"h": [], "psi": []}
    for n in sizes:
        state = final(n)
        for name, errs in errors.items():
            fine = oracles.fourier_interpolate(getattr(state, name).values, 96)
            errs.append(float(np.abs(fine - getattr(reference, name).values).max()))
    # Measured factors per refinement: h 5.2, 7.2, 10.9, 15.1; psi 14.2, 1.7,
    # 57, 12.6 (psi falls least from 24^2 to 32^2).  Each bound is about two
    # thirds of its measured factor.
    minimum = {"h": (3.5, 5.0, 7.0, 10.0), "psi": (9.0, 1.2, 35.0, 8.0)}
    for name, errs in errors.items():
        factors = [a / b for a, b in zip(errs, errs[1:])]
        assert all(f >= m for f, m in zip(factors, minimum[name])), (name, errs)
    # Measured at 64^2: h 1.6e-7, psi 1.4e-8.
    assert errors["h"][-1] < 3e-7 and errors["psi"][-1] < 3e-8, errors
    print(
        "ACCEPTANCE 9 PASS: final-field errors against 96^2 at nx = "
        f"{', '.join(map(str, sizes))}: "
        + "; ".join(f"{k} " + ", ".join(f"{e:.1e}" for e in v) for k, v in errors.items())
    )


def test_mass_error_floor_is_spatial_at_16_and_gone_at_32():
    # The same problem, a 16x dt ladder at two resolutions.  Measured
    # |mass_error|/mass: 16^2 1.73e-4, 1.43e-4, 1.35e-4 (orders 0.14, 0.04);
    # 32^2 3.67e-5, 9.37e-6, 2.42e-6 (orders 0.98, 0.98).
    dts = [1e-3, 2.5e-4, 6.25e-5]
    relative = {}
    for n in (16, 32):
        config = parse_config(SPATIAL_DOC.format(n=n))
        mass = simulate(replace(config, t_end=config.dt)).records[0].mass
        rows = convergence_sweep(config, dts)
        relative[n] = [row.error / mass for row in rows]
        orders = [row.observed_order for row in rows[1:]]
        if n == 16:
            # A 16x smaller dt barely moves the error: the floor is spatial.
            assert all(order < 0.3 for order in orders), (orders, relative)
            assert min(relative[n]) > 1e-4, relative
        else:
            assert all(0.85 <= order <= 1.15 for order in orders), (orders, relative)
    # At 32^2 the finest error is far below the 16^2 floor.
    assert relative[32][-1] < relative[16][-1] / 20, relative
    print(
        "ACCEPTANCE 9 PASS (mass floor): |mass_error|/mass at dt = 1e-3, 2.5e-4, 6.25e-5: "
        + "; ".join(f"{n}^2 " + ", ".join(f"{e:.2e}" for e in v) for n, v in relative.items())
    )
