"""Configuration grammar, snapshot format, run outputs, and the CLI."""

import math
import struct
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gradflow import (
    ConfigError,
    Constant,
    EnergyModel,
    FloryHuggins,
    FlowState,
    Grid,
    Linear,
    ModelVariant,
    Quadratic,
    Scheme,
    SnapshotError,
    build_grid,
    format_config,
    initial_state,
    parse_config,
    read_snapshot,
    simulate,
    write_snapshot,
)
from gradflow.cli import main
from gradflow.runner import CSV_HEADER

MINIMAL = """
grid.nx = 16
energy.kind = flory_huggins
stepper.dt = 1e-3
run.t_end = 1e-2
initial.psi = 0.25
"""

CHEAP = """
grid.nx = 16
energy.kind = constant
stepper.dt = 1e-3
run.t_end = 5e-3
run.record_every = 2
initial.h_amplitude = 0.3
initial.psi = 0.5
"""

ABORTING = """
grid.nx = 16
energy.kind = flory_huggins
mobility.m_x = 5.0
stepper.dt = 0.05
stepper.scheme = explicit_euler
run.t_end = 0.5
run.record_every = 1
initial.psi = 0.25
"""


# ---------------------------------------------------------------------------
# Configuration grammar


def test_defaults_from_minimal_document():
    cfg = parse_config(MINIMAL)
    assert cfg.nx == 16 and cfg.ny == 16
    assert cfg.lx == pytest.approx(2 * math.pi) and cfg.ly == pytest.approx(2 * math.pi)
    assert cfg.energy == FloryHuggins(1.0, 0.75, 0.0)
    assert cfg.m_x == 1.0 and cfg.m_psi == 1.0
    assert cfg.variant is ModelVariant.FULL_COUPLED
    assert cfg.scheme is Scheme.IMEX1
    assert cfg.record_every == 100
    assert cfg.snapshot_times == ()
    assert cfg.initial_h == "sin2x_sin2y" and cfg.h_amplitude == 1.0
    assert cfg.initial_psi == 0.25
    assert cfg.output_dir == "out"


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# leading comment\n\n" + MINIMAL + "\n  # trailing\n")
    assert cfg.nx == 16


def test_format_parse_roundtrip():
    samples = [
        parse_config(MINIMAL),
        parse_config(CHEAP),
        replace(
            parse_config(MINIMAL),
            energy=Quadratic(2.5),
            variant=ModelVariant.MATERIAL_GAUGE_QUADRATIC,
            snapshot_times=(0.0, 0.005, 0.01),
            scheme=Scheme.EXPLICIT_EULER,
            ny=32,
            lx=4 * math.pi,
            output_dir="elsewhere",
        ),
        replace(
            parse_config(MINIMAL),
            initial_h="file:state.sgf",
            initial_psi="file:state.sgf",
        ),
    ]
    # Each energy kind, and the lines it formats to: ``energy.kind`` and one
    # line per field of the preset, between the grid and the mobilities.
    energy_lines = {
        Constant(2.0): ["energy.kind = constant", "energy.c = 2.0"],
        Linear(-0.5): ["energy.kind = linear", "energy.c = -0.5"],
        Quadratic(2.5): ["energy.kind = quadratic", "energy.c = 2.5"],
        FloryHuggins(1.5, 0.5, chi=0.3): [
            "energy.kind = flory_huggins",
            "energy.sigma0 = 1.5",
            "energy.beta = 0.5",
            "energy.chi = 0.3",
        ],
    }
    for energy, expected in energy_lines.items():
        cfg = replace(parse_config(MINIMAL), energy=energy)
        samples.append(cfg)
        lines = format_config(cfg).splitlines()
        assert lines[3].startswith("grid.ly = ")
        assert lines[4 : 4 + len(expected)] == expected
        assert lines[4 + len(expected)].startswith("mobility.m_x = ")
    for cfg in samples:
        assert parse_config(format_config(cfg)) == cfg


def test_format_config_rejects_a_model_without_a_kind():
    class Custom(EnergyModel):
        pass

    with pytest.raises(TypeError, match="unknown energy model Custom"):
        format_config(replace(parse_config(MINIMAL), energy=Custom()))


def test_dt_that_divides_t_end_to_the_step_count_tolerance_is_accepted():
    # In floating point 0.3 / 0.1 is 2.9999999999999996 and 0.02 / 4e-5 is
    # 499.99999999999994: whole step counts to the 1e-9 that simulate allows.
    for dt, t_end in ((0.1, 0.3), (4e-5, 0.02), (7e-3, 7e-3)):
        doc = MINIMAL.replace("stepper.dt = 1e-3", f"stepper.dt = {dt!r}")
        cfg = parse_config(doc.replace("run.t_end = 1e-2", f"run.t_end = {t_end!r}"))
        assert (cfg.dt, cfg.t_end) == (dt, t_end)


def test_snapshot_times_parsed_as_tuple():
    cfg = parse_config(MINIMAL + "run.snapshot_times = 0.0, 5e-3, 1e-2\n")
    assert cfg.snapshot_times == (0.0, 5e-3, 1e-2)


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ("grid.nx = 16\n", "missing required keys"),
        ("grid.nx = 16\n", "energy.kind"),
        (MINIMAL + "typo.key = 1\n", "unknown keys: typo.key"),
        (MINIMAL + "run.seed = 0\n", "unknown keys: run.seed"),
        (MINIMAL + "grid.nx = 32\n", "duplicate key 'grid.nx'"),
        (MINIMAL.replace("16", "sixteen"), "type mismatch for key 'grid.nx'"),
        (MINIMAL + "stepper.dealias = true\n", "unknown keys: stepper.dealias"),
        (MINIMAL + "just a line\n", "section.key = value"),
        (MINIMAL.replace("grid.nx = 16", "grid.nx = 15"), "'grid.nx' must be even"),
        (MINIMAL.replace("grid.nx = 16", "grid.nx = 4"), "'grid.nx'"),
        (MINIMAL + "grid.lx = -1.0\n", "'grid.lx' must be > 0"),
        (MINIMAL.replace("flory_huggins", "cubic"), "energy.kind"),
        ("grid.nx = 16\nenergy.kind = constant\nenergy.c = -1\n"
         "stepper.dt = 1e-3\nrun.t_end = 1e-2\ninitial.psi = 0.25\n",
         "invalid energy parameters"),
        (MINIMAL + "energy.sigma0 = 0.0\n", "invalid energy parameters"),
        (MINIMAL + "mobility.m_x = 0\n", "'mobility.m_x' must be > 0"),
        (MINIMAL + "model.variant = sideways\n", "model.variant"),
        (MINIMAL + "model.variant = material_gauge_quadratic\n",
         "requires energy.kind = quadratic"),
        (MINIMAL.replace("stepper.dt = 1e-3", "stepper.dt = -1e-3"),
         "'stepper.dt' must be > 0"),
        (MINIMAL.replace("stepper.dt = 1e-3", "stepper.dt = 0.5"),
         "must be <= run.t_end"),
        (MINIMAL + "stepper.stab_h = 0.0\n", "unknown keys: stepper.stab_h"),
        (MINIMAL + "stepper.stab_psi = 0.0\n", "unknown keys: stepper.stab_psi"),
        (MINIMAL + "run.record_every = 0\n", "'run.record_every' must be > 0"),
        (MINIMAL + "run.snapshot_times = 0.5\n", "outside [0, t_end"),
        (MINIMAL + "initial.h = bumps\n", "initial.h"),
        (MINIMAL.replace("initial.psi = 0.25", "initial.psi = lots"),
         "initial.psi"),
        # Non-finite numbers are rejected where they are read.
        (MINIMAL.replace("run.t_end = 1e-2", "run.t_end = inf"), "key 'run.t_end'"),
        (MINIMAL + "mobility.m_x = inf\n", "key 'mobility.m_x'"),
        (MINIMAL + "energy.chi = nan\n", "key 'energy.chi'"),
        (MINIMAL.replace("initial.psi = 0.25", "initial.psi = nan"), "key 'initial.psi'"),
        (MINIMAL + "grid.lx = inf\n", "key 'grid.lx'"),
        (MINIMAL + "initial.h_amplitude = inf\n", "key 'initial.h_amplitude'"),
        # An energy key of another kind would be ignored: it is an error.
        (MINIMAL + "energy.c = 7\n", "keys not used by energy.kind = flory_huggins: energy.c"),
        (MINIMAL.replace("flory_huggins", "quadratic") + "energy.beta = 1\nenergy.chi = 2\n",
         "keys not used by energy.kind = quadratic: energy.beta, energy.chi"),
        # A dt that does not divide t_end would end the run early.
        (MINIMAL.replace("stepper.dt = 1e-3", "stepper.dt = 3e-3"),
         "key 'stepper.dt' must divide run.t_end (0.01 / 0.003 = 3.33"),
    ],
)
def test_rejections_name_the_offending_key(doc, fragment):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(doc)
    assert fragment in str(excinfo.value)


# The value rows of the table above: (key, document text, field value).
VALUE_FAULTS = [
    ("grid.nx", "15", 15),
    ("grid.nx", "4", 4),
    ("grid.lx", "-1.0", -1.0),
    ("mobility.m_x", "0", 0.0),
    ("model.variant", "material_gauge_quadratic", ModelVariant.MATERIAL_GAUGE_QUADRATIC),
    ("stepper.dt", "-1e-3", -1e-3),
    ("stepper.dt", "0.5", 0.5),
    ("run.record_every", "0", 0),
    ("run.snapshot_times", "0.5", (0.5,)),
    ("initial.h", "bumps", "bumps"),
    ("initial.psi", "lots", "lots"),
    ("run.t_end", "inf", math.inf),
    ("mobility.m_x", "inf", math.inf),
    ("initial.psi", "nan", math.nan),
    ("grid.lx", "inf", math.inf),
    ("initial.h_amplitude", "inf", math.inf),
    ("stepper.dt", "3e-3", 3e-3),
    # A field of the wrong type gives the message its text gives.
    ("run.record_every", "2.5", 2.5),
    ("grid.nx", "16.0", 16.0),
]


@pytest.mark.parametrize("key, text, value", VALUE_FAULTS)
def test_replace_raises_the_message_parsing_gives(key, text, value):
    from gradflow.config import _SCHEMA

    lines = [line for line in MINIMAL.splitlines() if not line.startswith(f"{key} ")]
    with pytest.raises(ConfigError) as parsed:
        parse_config("\n".join(lines) + f"\n{key} = {text}\n")
    with pytest.raises(ConfigError) as replaced:
        replace(parse_config(MINIMAL), **{_SCHEMA[key][0]: value})
    assert str(replaced.value) == str(parsed.value)


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("dt", "stepper.dt", "1e-3"),
        ("record_every", "run.record_every", True),
        ("scheme", "stepper.scheme", "imex1"),
        ("energy", "energy.kind", "flory_huggins"),
    ],
)
def test_replace_with_a_value_of_the_wrong_type_names_the_key(name, key, value):
    # Parsing accepts the texts of dt and scheme; the field's type still
    # refuses every one.
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        replace(parse_config(MINIMAL), **{name: value})


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("output_dir", "run.output_dir", "a\nb"),
        ("output_dir", "run.output_dir", "a\rb"),
        ("output_dir", "run.output_dir", "a\u2028b"),
        ("output_dir", "run.output_dir", " out"),
        ("output_dir", "run.output_dir", "out\t"),
        ("initial_h", "initial.h", "file:a\nb"),
        ("initial_h", "initial.h", " zero"),
        ("initial_psi", "initial.psi", "file:a\nb"),
        ("initial_psi", "initial.psi", "file:start.sgf "),
    ],
)
def test_a_string_no_document_line_can_hold_is_refused(name, key, value):
    # config.cfg must parse back to the exact run: a line break would split
    # the line, and parsing strips the blanks around a value.
    with pytest.raises(ConfigError, match=f"key '{key}' must be one line"):
        replace(parse_config(MINIMAL), **{name: value})


@pytest.mark.parametrize(
    "name, value",
    [
        ("output_dir", ""),
        ("output_dir", "runs/a b"),
        ("initial_h", "file:a b.sgf"),
        ("initial_psi", "file: start.sgf"),
    ],
)
def test_an_accepted_string_parses_back(name, value):
    cfg = replace(parse_config(MINIMAL), **{name: value})
    assert parse_config(format_config(cfg)) == cfg


def test_a_run_of_an_invalid_replaced_config_never_starts():
    # The config is refused where it is made, before simulate is called.
    cfg = parse_config(MINIMAL)  # to t_end = 0.01
    with pytest.raises(ConfigError, match="key 'stepper.dt' must divide run.t_end"):
        simulate(replace(cfg, dt=3e-3))
    with pytest.raises(ConfigError, match="key 'run.record_every' must be > 0"):
        simulate(replace(cfg, record_every=0))


# ---------------------------------------------------------------------------
# Initial conditions


def test_initial_state_presets():
    cfg = parse_config(MINIMAL + "initial.h_amplitude = 0.5\n")
    state = initial_state(cfg)
    g = build_grid(cfg)
    expected = g.from_function(lambda x, y: 0.5 * np.sin(2 * x) * np.sin(2 * y))
    assert np.allclose(state.h.values, expected.values, atol=1e-15)
    assert np.all(state.psi.values == 0.25)
    assert state.t == 0.0

    flat = initial_state(replace(cfg, initial_h="zero"))
    assert np.all(flat.h.values == 0.0)


def test_initial_state_from_snapshot_file(tmp_path):
    g = Grid(16, 16)
    rng = np.random.default_rng(3)
    donor = FlowState(
        t=0.37,
        h=g.from_function(lambda x, y: 0.1 * np.sin(x) * np.cos(y)),
        psi=g.from_function(lambda x, y: 0.4 + 0.05 * np.cos(x + y)),
    )
    path = tmp_path / "donor.sgf"
    write_snapshot(donor, path)

    cfg = replace(
        parse_config(MINIMAL),
        initial_h=f"file:{path}",
        initial_psi=f"file:{path}",
    )
    state = initial_state(cfg)
    assert np.array_equal(state.h.values, donor.h.values)
    assert np.array_equal(state.psi.values, donor.psi.values)
    assert state.t == 0.0  # a file seed does not shift the clock

    wrong = replace(cfg, nx=32, ny=32)
    with pytest.raises(ConfigError, match="initial.h"):
        initial_state(wrong)
    # Same point counts, other domain: the message tells the grids apart.
    with pytest.raises(ConfigError) as excinfo:
        initial_state(replace(cfg, lx=3.0))
    assert f"16x16 on {2 * math.pi!r} x {2 * math.pi!r} does not match" in str(excinfo.value)
    assert f"grid 16x16 on 3.0 x {2 * math.pi!r}" in str(excinfo.value)
    missing = replace(cfg, initial_h=f"file:{tmp_path / 'no.sgf'}")
    with pytest.raises(ConfigError, match="cannot read snapshot"):
        initial_state(missing)


# ---------------------------------------------------------------------------
# Snapshot format


def test_snapshot_roundtrip_bitwise(tmp_path):
    g = Grid(12, 20, 4 * math.pi, math.pi)
    rng = np.random.default_rng(11)
    from gradflow import ScalarField

    state = FlowState(
        t=1.234567890123456,
        h=ScalarField(g, rng.standard_normal((12, 20))),
        psi=ScalarField(g, rng.standard_normal((12, 20))),
        step_index=42,
    )
    path = tmp_path / "state.sgf"
    write_snapshot(state, path)
    loaded = read_snapshot(path)
    assert loaded.t == state.t
    assert loaded.grid.nx == 12 and loaded.grid.ny == 20
    assert loaded.grid.lx == g.lx and loaded.grid.ly == g.ly
    assert np.array_equal(loaded.h.values, state.h.values)
    assert np.array_equal(loaded.psi.values, state.psi.values)
    assert loaded.step_index == 0


def test_snapshot_file_size_is_fixed(tmp_path):
    g = Grid(8, 8)
    state = FlowState(0.0, g.zeros(), g.constant(0.5))
    path = tmp_path / "small.sgf"
    write_snapshot(state, path)
    # 36-byte header + two 8x8 float64 planes
    assert path.stat().st_size == 36 + 2 * 8 * 64 == 1060


@pytest.mark.skipif(sys.byteorder == "big", reason="a big-endian field is converted to '<f8'")
def test_snapshot_write_copies_no_field(tmp_path):
    g = Grid(64, 64)
    state = FlowState(0.0, g.from_function(lambda x, y: np.sin(x) * np.cos(y)), g.constant(0.5))
    path = tmp_path / "state.sgf"
    write_snapshot(state, path)  # the first call's imports and file objects
    tracemalloc.start()
    try:
        write_snapshot(state, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < state.h.values.nbytes == 32768, peak
    assert path.stat().st_size == 36 + 2 * 32768


def test_snapshot_rejects_bad_magic(tmp_path):
    g = Grid(8, 8)
    path = tmp_path / "bad.sgf"
    write_snapshot(FlowState(0.0, g.zeros(), g.zeros()), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="bad magic"):
        read_snapshot(path)


def test_snapshot_rejects_truncation(tmp_path):
    g = Grid(8, 8)
    path = tmp_path / "cut.sgf"
    write_snapshot(FlowState(0.0, g.zeros(), g.zeros()), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(SnapshotError, match="expected"):
        read_snapshot(path)
    path.write_bytes(raw[:10])
    with pytest.raises(SnapshotError, match="truncated"):
        read_snapshot(path)


def _write_raw_snapshot(path, nx, ny, lx):
    """A snapshot file with any header grid, built without :class:`Grid`."""
    header = struct.pack("<4sIIddd", b"SGF1", nx, ny, lx, 2 * math.pi, 0.0)
    path.write_bytes(header + np.full(2 * nx * ny, 0.25, dtype="<f8").tobytes())


@pytest.mark.parametrize(
    "nx, ny, lx",
    [(7, 8, 1.0), (4, 8, 1.0), (8, 8, -1.0), (8, 8, math.nan), (8, 8, math.inf)],
)
def test_snapshot_rejects_bad_grid_in_header(tmp_path, nx, ny, lx):
    # The body has the size the header implies; only the grid is at fault.
    path = tmp_path / "grid.sgf"
    _write_raw_snapshot(path, nx, ny, lx)
    with pytest.raises(SnapshotError, match="bad grid"):
        read_snapshot(path)


# ---------------------------------------------------------------------------
# Run outputs


def test_simulate_writes_complete_output_set(tmp_path):
    cfg = replace(parse_config(CHEAP), snapshot_times=(0.0, 2e-3, 2.5e-3, 5e-3))
    out = tmp_path / "run"
    result = simulate(cfg, out_dir=out)
    assert not result.aborted

    assert parse_config((out / "config.cfg").read_text()) == cfg

    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # records at steps 0, 2, 4, 5
    assert len(lines) == 1 + len(result.records) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[8] == ""  # no backward difference yet
    assert lines[2].split(",")[8] != ""

    final = read_snapshot(out / "final.sgf")
    assert np.array_equal(final.h.values, result.state.h.values)
    assert final.t == pytest.approx(cfg.t_end, rel=1e-12)

    # snapshot times land on the first step at or after the requested time
    for idx, t_expected in enumerate((0.0, 2e-3, 3e-3, 5e-3)):
        snap = read_snapshot(out / f"snapshot_{idx:03d}.sgf")
        assert snap.t == pytest.approx(t_expected, abs=1e-12)

    report = (out / "report.txt").read_text()
    assert "status = completed" in report
    assert "steps = 5" in report
    assert "clamp_count = 0" in report
    assert "threads = 1" in report.splitlines()  # a 16x16 grid stays on one thread
    rate = [line for line in report.splitlines() if line.startswith("steps_per_second = ")]
    assert len(rate) == 1 and float(rate[0].split(" = ")[1]) > 0.0


def test_simulate_record_cadence():
    cfg = replace(parse_config(CHEAP), record_every=4, t_end=1e-2)
    steps = [round(r.t / cfg.dt) for r in simulate(cfg).records]
    assert steps == [0, 4, 8, 10]


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = parse_config(MINIMAL + "initial.h_amplitude = 0.5\nrun.record_every = 3\n")
    a, b = tmp_path / "a", tmp_path / "b"
    simulate(cfg, out_dir=a)
    simulate(cfg, out_dir=b)
    assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
    assert (a / "final.sgf").read_bytes() == (b / "final.sgf").read_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_aborted_run_leaves_partial_outputs(tmp_path):
    cfg = parse_config(ABORTING)
    out = tmp_path / "boom"
    result = simulate(cfg, out_dir=out)
    assert result.aborted
    assert "non-finite" in result.abort_message
    assert (out / "last_valid.sgf").exists()
    assert not (out / "final.sgf").exists()
    last = read_snapshot(out / "last_valid.sgf")
    assert np.all(np.isfinite(last.h.values))
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) > 1
    report = (out / "report.txt").read_text()
    assert "status = aborted" in report
    assert "abort_message = " in report


def test_aborted_run_emits_no_floating_point_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = simulate(parse_config(ABORTING))
    assert result.aborted and "non-finite" in result.abort_message


def test_paired_run_writes_the_bytes_of_the_inline_run(tmp_path, pairing):
    # Five 256x256 steps, each recorded, with a snapshot midway.
    cfg = parse_config(
        """
        grid.nx = 256
        energy.kind = flory_huggins
        stepper.dt = 1e-5
        run.t_end = 5e-5
        run.record_every = 1
        run.snapshot_times = 3e-5
        initial.psi = 0.25
        """
    )
    outputs = []
    for on in (False, True):
        pairing(on)
        out = tmp_path / f"paired_{on}"
        assert not simulate(cfg, out_dir=out).aborted
        outputs.append(
            [(out / name).read_bytes() for name in ("series.csv", "final.sgf", "snapshot_000.sgf")]
        )
        assert f"threads = {2 if on else 1}" in (out / "report.txt").read_text().splitlines()
    assert outputs[0] == outputs[1]
    assert pairing.helper_calls == 2 * 6 + 5  # two per evaluation of six states, one per step


def test_paired_abort_matches_the_inline_abort(pairing):
    results = []
    for on in (False, True):
        pairing(on)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # also a warning on the helper thread
            result = simulate(parse_config(ABORTING))
        assert result.aborted
        results.append(result)
    inline, paired = results
    assert paired.abort_message == inline.abort_message
    assert paired.state.step_index == inline.state.step_index and paired.state.t == inline.state.t
    assert paired.state.h.values.tobytes() == inline.state.h.values.tobytes()
    assert paired.state.psi.values.tobytes() == inline.state.psi.values.tobytes()
    assert pairing.helper_calls > 0


def quadratic_blowup(dt):
    """A quadratic-energy explicit run that blows up within 400 steps."""
    return f"""
grid.nx = 16
energy.kind = quadratic
stepper.scheme = explicit_euler
stepper.dt = {dt!r}
run.t_end = {400 * dt!r}
run.record_every = 1
initial.psi = 0.25
"""


# At dt = 0.1468 a step leaves finite fields whose curvature overflows, so
# the evaluation of the new state fails; at the other dt the record of a
# blowing-up state used to warn of an overflow in its surface integrals.
BLOWUPS = [quadratic_blowup(0.1468), quadratic_blowup(0.06812920690579612)]


@pytest.mark.parametrize("text", BLOWUPS)
def test_blowup_ends_as_an_abort_at_the_last_finite_evaluation(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = simulate(parse_config(text))
    assert result.aborted and "non-finite" in result.abort_message
    last = result.state
    assert np.all(np.isfinite(last.h.values)) and np.all(np.isfinite(last.psi.values))
    # The run stops at the state it last evaluated: its record is the last.
    assert result.records[-1].t == last.t


# ---------------------------------------------------------------------------
# Command-line interface


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_run_success(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CHEAP)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert (out / "series.csv").exists()
    assert (out / "report.txt").exists()


def test_cli_run_uses_configured_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, CHEAP + "run.output_dir = from_config\n")
    assert main(["run", cfg]) == 0
    assert (tmp_path / "from_config" / "series.csv").exists()


def test_cli_missing_config_file(tmp_path, capsys):
    path = str(tmp_path / "absent.cfg")
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "cannot read config" in err
    assert err.count(path) == 1, err


def test_cli_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"grid.nx = 16\n# \xff\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config '{path}': ")
    assert "0xff" in err
    assert err.count(str(path)) == 1, err


def test_cli_invalid_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "grid.nx = 16\n")
    assert main(["run", cfg]) == 2
    assert "missing required keys" in capsys.readouterr().err


def _bad_snapshot(path, fault):
    if fault == "bad_grid":
        _write_raw_snapshot(path, 16, 16, -1.0)
        return
    g = Grid(16, 16)
    h, psi = g.zeros(), g.constant(0.25)
    if fault == "nan_h":
        h.values[3, 4] = np.nan
    if fault == "inf_psi":
        psi.values[5, 6] = np.inf
    write_snapshot(FlowState(0.0, h, psi), path)
    if fault == "bad_magic":
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))


@pytest.mark.parametrize(
    "fault, key",
    [
        ("missing", "initial.h"),
        ("bad_magic", "initial.h"),
        ("bad_grid", "initial.h"),
        ("nan_h", "initial.h"),
        ("inf_psi", "initial.psi"),
    ],
)
def test_cli_bad_initial_snapshot_names_the_key(tmp_path, capsys, fault, key):
    snap = tmp_path / "start.sgf"
    if fault != "missing":
        _bad_snapshot(snap, fault)
    line = f"{key} = file:{snap}\n"
    doc = MINIMAL + line if key == "initial.h" else MINIMAL.replace("initial.psi = 0.25\n", line)
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"key '{key}'" in err
    assert err.count(str(snap)) == 1, err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_initial_height_without_finite_geometry_names_the_key(tmp_path, capsys):
    # The heights are finite, but their curvature overflows: the run is
    # refused as bad input before anything is written.
    doc = MINIMAL.replace("flory_huggins", "quadratic") + "initial.h_amplitude = 1e200\n"
    out = tmp_path / "o"
    assert main(["run", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: key 'initial.h': ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_aborted_run_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ABORTING)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "run aborted" in capsys.readouterr().err


@pytest.mark.parametrize("text", BLOWUPS)
def test_cli_blowup_ends_as_an_abort(tmp_path, capsys, text):
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "run aborted" in err and "Traceback" not in err
    assert "status = aborted" in (out / "report.txt").read_text()
    last = read_snapshot(out / "last_valid.sgf")
    assert np.all(np.isfinite(last.h.values)) and np.all(np.isfinite(last.psi.values))
    assert not (out / "final.sgf").exists()


def test_cli_compare(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CHEAP)
    out = tmp_path / "cmp"
    assert main(["compare", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "energy_ordered = true" in printed
    assert "final_range_smaller = true" in printed
    assert (out / "series_full.csv").exists()
    assert (out / "series_normal.csv").exists()
    assert "energy_ordered = true" in (out / "compare.txt").read_text()


def test_cli_compare_with_an_aborted_run_exits_1(tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", write_cfg(tmp_path, ABORTING), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the full variant aborted: non-finite fields after step 7 (t = 0.35); aborting\n"
    )
    assert not out.exists()


def test_cli_sweep_with_an_aborted_run_exits_1(tmp_path, capsys):
    out = tmp_path / "swp"
    args = ["sweep", write_cfg(tmp_path, ABORTING), "--out", str(out)]
    assert main([*args, "--dt-ladder", "0.05,0.025,0.0125"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the run at dt = 0.05 aborted: non-finite fields")
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_cli_sweep(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CHEAP)
    out = tmp_path / "swp"
    code = main(
        ["sweep", cfg, "--out", str(out), "--dt-ladder", "1e-3,5e-4,2.5e-4"]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.count("dt = ") == 3
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "dt,mass_error,observed_order,dissipation_mismatch"
    assert len(lines) == 4


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below_a_file"])
def test_cli_unwritable_output_is_bad_input(tmp_path, capsys, command, below):
    # An --out path that is a file, or lies below one, ends the command with
    # one line naming the path, and exit 2.
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "sub" if below else blocker
    args = [command, write_cfg(tmp_path, CHEAP), "--out", str(out)]
    if command == "sweep":
        args += ["--dt-ladder", "1e-3,5e-4,2.5e-4"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1, captured.err
    assert captured.err.startswith(f"error: cannot write '{out}': ")
    assert "Traceback" not in captured.err


def test_cli_sweep_bad_ladder(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CHEAP)
    assert main(["sweep", cfg, "--dt-ladder", "fast,slow"]) == 2
    assert "comma-separated numbers" in capsys.readouterr().err
    assert main(["sweep", cfg, "--out", str(tmp_path / "x"), "--dt-ladder", "1e-3,5e-4"]) == 2
    assert ">= 3" in capsys.readouterr().err
    # Each entry obeys the stepper.dt rule: finite, > 0 and <= run.t_end.
    for ladder in ("0.5,0.25,0.125", "inf,1e-3,5e-4", "1e-3,nan,2.5e-4", "1e-3,0,-1e-3"):
        assert main(["sweep", cfg, "--out", str(tmp_path / "y"), "--dt-ladder", ladder]) == 2
        assert "--dt-ladder" in capsys.readouterr().err
    # ... and divides run.t_end (5e-3) into whole steps, as 3e-4 does not.
    assert main(["sweep", cfg, "--out", str(tmp_path / "y"), "--dt-ladder", "1e-3,5e-4,3e-4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --dt-ladder entry must divide run.t_end (0.005 / 0.0003 = ")
    assert not (tmp_path / "y").exists()
