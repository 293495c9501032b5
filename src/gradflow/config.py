"""Flat key-value run configuration: parsing, validation, and formatting.

The configuration grammar is deliberately minimal so any language can
parse it: one ``section.key = value`` assignment per line, ``#`` starts a
full-line comment, blank lines are ignored.  Unknown keys and malformed
values, a non-finite number (``inf``, ``nan``) included, are hard errors
that name the offending key; silent typos are not possible.

Example (the bundled reference experiment)::

    grid.nx = 128
    energy.kind = flory_huggins
    energy.sigma0 = 1.0
    energy.beta = 0.75
    energy.chi = 0.0
    mobility.m_x = 5.0
    mobility.m_psi = 1.0
    stepper.dt = 1e-5
    run.t_end = 0.8
    initial.psi = 0.25

Every omitted key takes the documented default; :func:`format_config`
emits the fully explicit document, and ``parse_config(format_config(c))``
reproduces ``c`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import Constant, EnergyModel, FloryHuggins, Linear, Quadratic
from .flow import FlowState, ModelVariant, Scheme
from .spectral import Grid, ScalarField

__all__ = [
    "ConfigError",
    "InitialHeight",
    "InitialDensity",
    "RunConfig",
    "parse_config",
    "format_config",
    "check_dt",
    "build_grid",
    "initial_state",
]

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Configuration document rejected; the message names the keys at fault."""


@dataclass(frozen=True)
class InitialHeight:
    """Initial height field: preset ``sin2x_sin2y`` (scaled by ``amplitude``),
    ``zero``, or the height slot of a snapshot file."""

    kind: str = "sin2x_sin2y"
    amplitude: float = 1.0
    path: str = ""


@dataclass(frozen=True)
class InitialDensity:
    """Initial density field: uniform ``value`` or the density slot of a
    snapshot file."""

    kind: str = "constant"
    value: float = 0.0
    path: str = ""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description; immutable and value-comparable."""

    nx: int
    ny: int
    lx: float
    ly: float
    energy: EnergyModel
    m_x: float
    m_psi: float
    variant: ModelVariant
    dt: float
    scheme: Scheme
    t_end: float
    record_every: int
    snapshot_times: tuple[float, ...]
    initial_h: InitialHeight
    initial_psi: InitialDensity
    output_dir: str


# -- schema -----------------------------------------------------------------

_ENERGY_KINDS = ("constant", "linear", "quadratic", "flory_huggins")
_H_PRESETS = ("sin2x_sin2y", "zero")

# key -> (type tag, default); required keys have default _REQUIRED.
_REQUIRED = object()
_SCHEMA: dict[str, tuple[str, object]] = {
    "grid.nx": ("int", _REQUIRED),
    "grid.ny": ("int", None),  # defaults to grid.nx
    "grid.lx": ("float", TWO_PI),
    "grid.ly": ("float", TWO_PI),
    "energy.kind": ("str", _REQUIRED),
    "energy.c": ("float", 1.0),
    "energy.sigma0": ("float", 1.0),
    "energy.beta": ("float", 0.75),
    "energy.chi": ("float", 0.0),
    "mobility.m_x": ("float", 1.0),
    "mobility.m_psi": ("float", 1.0),
    "model.variant": ("str", "full"),
    "stepper.dt": ("float", _REQUIRED),
    "stepper.scheme": ("str", "imex1"),
    "run.t_end": ("float", _REQUIRED),
    "run.record_every": ("int", 100),
    "run.snapshot_times": ("floats", ()),
    "run.output_dir": ("str", "out"),
    "initial.h": ("str", "sin2x_sin2y"),
    "initial.h_amplitude": ("float", 1.0),
    "initial.psi": ("str", _REQUIRED),
}


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _convert(key: str, tag: str, raw: str):
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return _finite_float(raw)
        if tag == "floats":
            raw = raw.strip()
            if not raw:
                return ()
            return tuple(_finite_float(part) for part in raw.split(","))
        return raw
    except ValueError as exc:
        raise ConfigError(f"type mismatch for key '{key}': {exc}") from None


def check_dt(dt: float, t_end: float, name: str) -> None:
    """The time-step rule: ``dt`` is finite, > 0 and <= ``t_end``.  ``name``
    says in the error where ``dt`` came from."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"{name} must be > 0 and finite, got {dt}")
    if dt > t_end:
        raise ConfigError(f"{name} must be <= run.t_end ({dt} > {t_end})")


def parse_config(text: str) -> RunConfig:
    """Parse a configuration document into a validated :class:`RunConfig`."""
    values: dict[str, object] = {}
    unknown: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SCHEMA:
            unknown.append(key)
            continue
        if key in values:
            raise ConfigError(f"duplicate key '{key}' (line {lineno})")
        values[key] = _convert(key, _SCHEMA[key][0], raw)
    if unknown:
        raise ConfigError("unknown keys: " + ", ".join(sorted(unknown)))

    missing = [k for k, (_, default) in _SCHEMA.items() if default is _REQUIRED and k not in values]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(sorted(missing)))

    def get(key: str):
        if key in values:
            return values[key]
        return _SCHEMA[key][1]

    def require_positive(key: str, value: float) -> None:
        if not (value > 0):
            raise ConfigError(f"key '{key}' must be > 0, got {value}")

    nx = get("grid.nx")
    ny = get("grid.ny")
    if ny is None:
        ny = nx
    for key, n in (("grid.nx", nx), ("grid.ny", ny)):
        if n % 2 != 0 or n < 8:
            raise ConfigError(f"key '{key}' must be even and >= 8, got {n}")
    lx, ly = get("grid.lx"), get("grid.ly")
    require_positive("grid.lx", lx)
    require_positive("grid.ly", ly)

    kind = get("energy.kind")
    if kind not in _ENERGY_KINDS:
        raise ConfigError(
            f"key 'energy.kind' must be one of {', '.join(_ENERGY_KINDS)}; got '{kind}'"
        )
    try:
        if kind == "constant":
            energy: EnergyModel = Constant(get("energy.c"))
        elif kind == "linear":
            energy = Linear(get("energy.c"))
        elif kind == "quadratic":
            energy = Quadratic(get("energy.c"))
        else:
            energy = FloryHuggins(get("energy.sigma0"), get("energy.beta"), get("energy.chi"))
    except ValueError as exc:
        section = "energy.c" if kind in ("constant", "linear", "quadratic") else "energy.sigma0/energy.beta"
        raise ConfigError(f"invalid energy parameters ({section}): {exc}") from None

    m_x, m_psi = get("mobility.m_x"), get("mobility.m_psi")
    require_positive("mobility.m_x", m_x)
    require_positive("mobility.m_psi", m_psi)

    try:
        variant = ModelVariant(get("model.variant"))
    except ValueError:
        raise ConfigError(
            "key 'model.variant' must be one of "
            + ", ".join(v.value for v in ModelVariant)
            + f"; got '{get('model.variant')}'"
        ) from None
    if variant is ModelVariant.MATERIAL_GAUGE_QUADRATIC and kind != "quadratic":
        raise ConfigError(
            "key 'model.variant': material_gauge_quadratic requires energy.kind = quadratic"
        )

    dt = get("stepper.dt")
    try:
        scheme = Scheme(get("stepper.scheme"))
    except ValueError:
        raise ConfigError(
            "key 'stepper.scheme' must be one of "
            + ", ".join(s.value for s in Scheme)
            + f"; got '{get('stepper.scheme')}'"
        ) from None

    t_end = get("run.t_end")
    require_positive("run.t_end", t_end)
    check_dt(dt, t_end, "key 'stepper.dt'")
    record_every = get("run.record_every")
    require_positive("run.record_every", record_every)
    snapshot_times = get("run.snapshot_times")
    for s in snapshot_times:
        if not (0.0 <= s <= t_end):
            raise ConfigError(
                f"key 'run.snapshot_times': time {s} outside [0, t_end={t_end}]"
            )

    h_raw = get("initial.h")
    if h_raw.startswith("file:"):
        initial_h = InitialHeight("file", get("initial.h_amplitude"), h_raw[5:])
    elif h_raw in _H_PRESETS:
        initial_h = InitialHeight(h_raw, get("initial.h_amplitude"), "")
    else:
        raise ConfigError(
            f"key 'initial.h' must be one of {', '.join(_H_PRESETS)} or file:<path>; got '{h_raw}'"
        )

    psi_raw = get("initial.psi")
    if psi_raw.startswith("file:"):
        initial_psi = InitialDensity("file", 0.0, psi_raw[5:])
    else:
        try:
            initial_psi = InitialDensity("constant", _finite_float(psi_raw), "")
        except ValueError:
            raise ConfigError(
                f"key 'initial.psi' must be a number or file:<path>; got '{psi_raw}'"
            ) from None

    return RunConfig(
        nx=nx,
        ny=ny,
        lx=lx,
        ly=ly,
        energy=energy,
        m_x=m_x,
        m_psi=m_psi,
        variant=variant,
        dt=dt,
        scheme=scheme,
        t_end=t_end,
        record_every=record_every,
        snapshot_times=tuple(snapshot_times),
        initial_h=initial_h,
        initial_psi=initial_psi,
        output_dir=get("run.output_dir"),
    )


def format_config(config: RunConfig) -> str:
    """Emit the fully explicit document for a config; inverse of parsing."""
    e = config.energy
    if isinstance(e, Constant):
        energy_lines = ["energy.kind = constant", f"energy.c = {e.c!r}"]
    elif isinstance(e, Linear):
        energy_lines = ["energy.kind = linear", f"energy.c = {e.c!r}"]
    elif isinstance(e, Quadratic):
        energy_lines = ["energy.kind = quadratic", f"energy.c = {e.c!r}"]
    elif isinstance(e, FloryHuggins):
        energy_lines = [
            "energy.kind = flory_huggins",
            f"energy.sigma0 = {e.sigma0!r}",
            f"energy.beta = {e.beta!r}",
            f"energy.chi = {e.chi!r}",
        ]
    else:  # pragma: no cover - presets are closed
        raise TypeError(f"unknown energy model {type(e).__name__}")

    if config.initial_h.kind == "file":
        h_line = f"initial.h = file:{config.initial_h.path}"
    else:
        h_line = f"initial.h = {config.initial_h.kind}"
    if config.initial_psi.kind == "file":
        psi_line = f"initial.psi = file:{config.initial_psi.path}"
    else:
        psi_line = f"initial.psi = {config.initial_psi.value!r}"

    lines = [
        f"grid.nx = {config.nx}",
        f"grid.ny = {config.ny}",
        f"grid.lx = {config.lx!r}",
        f"grid.ly = {config.ly!r}",
        *energy_lines,
        f"mobility.m_x = {config.m_x!r}",
        f"mobility.m_psi = {config.m_psi!r}",
        f"model.variant = {config.variant.value}",
        f"stepper.dt = {config.dt!r}",
        f"stepper.scheme = {config.scheme.value}",
        f"run.t_end = {config.t_end!r}",
        f"run.record_every = {config.record_every}",
        f"run.snapshot_times = {', '.join(repr(s) for s in config.snapshot_times)}",
        f"run.output_dir = {config.output_dir}",
        h_line,
        f"initial.h_amplitude = {config.initial_h.amplitude!r}",
        psi_line,
    ]
    return "\n".join(lines) + "\n"


# -- builders ---------------------------------------------------------------


def build_grid(config: RunConfig) -> Grid:
    return Grid(config.nx, config.ny, config.lx, config.ly)


def _describe(grid: Grid) -> str:
    return f"{grid.nx}x{grid.ny} on {grid.lx!r} x {grid.ly!r}"


def _field_from_snapshot(path: str, which: str, grid: Grid, key: str) -> ScalarField:
    from .snapshot import SnapshotError, read_snapshot

    try:
        loaded = read_snapshot(path)
    except (OSError, SnapshotError) as exc:
        # The path is named once, here: ``strerror`` leaves it out of an
        # OSError, and a SnapshotError names only the fault.
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError(f"key '{key}': cannot read snapshot '{path}': {reason}") from None
    if not loaded.grid.compatible(grid):
        raise ConfigError(
            f"key '{key}': snapshot grid {_describe(loaded.grid)} "
            f"does not match configured grid {_describe(grid)}"
        )
    source = loaded.h if which == "h" else loaded.psi
    bad = source.values.size - np.count_nonzero(np.isfinite(source.values))
    if bad:
        raise ConfigError(f"key '{key}': snapshot '{path}' holds {bad} non-finite values")
    return ScalarField(grid, source.values)


def initial_state(config: RunConfig, grid: Grid | None = None) -> FlowState:
    """Materialize the initial (h, psi) fields at t = 0."""
    if grid is None:
        grid = build_grid(config)

    ih = config.initial_h
    if ih.kind == "zero":
        h = grid.zeros()
    elif ih.kind == "sin2x_sin2y":
        h = grid.from_function(
            lambda x, y: ih.amplitude * np.sin(2.0 * x) * np.sin(2.0 * y)
        )
    else:
        h = _field_from_snapshot(ih.path, "h", grid, "initial.h")

    ip = config.initial_psi
    if ip.kind == "constant":
        psi = grid.constant(ip.value)
    else:
        psi = _field_from_snapshot(ip.path, "psi", grid, "initial.psi")

    return FlowState(t=0.0, h=h, psi=psi, step_index=0)
