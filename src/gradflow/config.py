"""Flat key-value run configuration: parsing, validation, and formatting.

The configuration grammar is deliberately minimal so any language can
parse it: one ``section.key = value`` assignment per line, ``#`` starts a
full-line comment, blank lines are ignored.  Unknown keys, ``energy.*``
keys that the chosen ``energy.kind`` does not use, and malformed values, a
non-finite number (``inf``, ``nan``) included, are hard errors that name the
offending key; silent typos are not possible.  The value rules (grid sizes,
positive keys, the ``stepper.dt`` rule, snapshot times, the initial data,
the Flory-Huggins spinodal) are :class:`RunConfig`'s own: a config made in
code or by ``dataclasses.replace`` obeys them as a parsed one does.

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

One table, :data:`_SCHEMA`, gives each key its :class:`RunConfig` field, its
type and its default.  Every omitted key takes that default;
:func:`format_config` emits the fully explicit document in the table's
order, and ``parse_config(format_config(c))`` reproduces ``c`` exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .energy import Constant, EnergyModel, FloryHuggins, Linear, Quadratic, _escape
from .flow import FlowState, ModelVariant, Scheme
from .snapshot import SnapshotError, read_snapshot
from .spectral import Grid, ScalarField

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "format_config",
    "check_dt",
    "build_grid",
    "initial_state",
]


class ConfigError(ValueError):
    """Configuration document rejected; the message names the keys at fault."""


@dataclass(frozen=True)
class RunConfig:
    """Run description; immutable, value-comparable, and valid however made.

    ``initial_h`` is a height preset (``sin2x_sin2y``, scaled by
    ``h_amplitude``, or ``zero``) or ``file:<path>``, the height slot of a
    snapshot.  ``initial_psi`` is a uniform density value in the energy's
    ``domain`` ([0, 1] for ``FloryHuggins``), or ``file:<path>``, the density
    slot of a snapshot.

    Construction, ``dataclasses.replace`` included, checks that the text
    :func:`format_config` writes for each value, the energy's fields
    included, parses back to that value (so a numpy scalar is taken, and a
    string that one line cannot hold is not), then the value rules.  It
    raises the :class:`ConfigError` that parsing the same text gives, naming
    the key: ``replace(config, dt=3e-3)`` on a run to ``t_end = 0.01``
    raises ``key 'stepper.dt' must divide run.t_end ...``.
    """

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
    output_dir: str
    initial_h: str
    h_amplitude: float
    initial_psi: float | str

    def __post_init__(self) -> None:
        """Check each value's text, then the value rules, in parsing's words."""
        if not isinstance(self.energy, EnergyModel):
            raise _mismatch("energy.kind", EnergyModel, self.energy)
        values = _entries(self)
        for key, value in values.items():
            if _convert(key, _SCHEMA[key][1], _text(value)) != value:
                raise _mismatch(key, _SCHEMA[key][1], value)
        for key in ("grid.nx", "grid.ny"):
            if values[key] % 2 != 0 or values[key] < 8:
                raise ConfigError(f"key '{key}' must be even and >= 8, got {values[key]}")
        for key in _POSITIVE:
            if not (values[key] > 0):
                raise ConfigError(f"key '{key}' must be > 0, got {values[key]}")
        if self.variant is ModelVariant.MATERIAL_GAUGE_QUADRATIC and type(self.energy) is not Quadratic:
            raise ConfigError(
                "key 'model.variant': material_gauge_quadratic requires energy.kind = quadratic"
            )
        flory_huggins = values.get("energy.kind") == "flory_huggins"
        if flory_huggins and values["energy.chi"] > 2.0 * values["energy.beta"]:
            raise ConfigError(
                f"key 'energy.chi' must be <= 2 * energy.beta = {2.0 * values['energy.beta']}, got "
                f"{values['energy.chi']}: f'' < 0 somewhere in (0, 1), and the model has no "
                "gradient energy to make the flow well-posed there"
            )
        check_dt(values["stepper.dt"], values["run.t_end"], "key 'stepper.dt'")
        for s in values["run.snapshot_times"]:
            if not (0.0 <= s <= self.t_end):
                raise ConfigError(f"key 'run.snapshot_times': time {s} outside [0, t_end={self.t_end}]")
        if not (self.initial_h.startswith("file:") or self.initial_h in _H_PRESETS):
            raise _one_of("initial.h", f"{', '.join(_H_PRESETS)} or file:<path>", self.initial_h)
        psi, (lo, hi) = values["initial.psi"], self.energy.domain
        if not isinstance(psi, str) and not (lo <= psi <= hi):
            kind = values.get("energy.kind", type(self.energy).__name__)
            raise ConfigError(f"key 'initial.psi' must be in [{lo:g}, {hi:g}] for {kind}, got {psi}")


# -- schema -----------------------------------------------------------------

# energy.kind -> preset; each field of a preset is the key ``energy.<field>``.
_ENERGIES = {
    "constant": Constant, "linear": Linear, "quadratic": Quadratic, "flory_huggins": FloryHuggins
}
_H_PRESETS = ("sin2x_sin2y", "zero")

# key -> (RunConfig field, type, default), in the order format_config writes
# the keys; required keys have default _REQUIRED.  ``energy.kind`` fills the
# ``energy`` field, and ``energy.<field>`` names the field of the preset.
_REQUIRED = object()
_SCHEMA: dict[str, tuple[str, type, object]] = {
    "grid.nx": ("nx", int, _REQUIRED),
    "grid.ny": ("ny", int, None),  # defaults to grid.nx
    "grid.lx": ("lx", float, 2.0 * math.pi),
    "grid.ly": ("ly", float, 2.0 * math.pi),
    "energy.kind": ("energy", str, _REQUIRED),
    **{f"energy.{f.name}": (f.name, float, f.default) for e in _ENERGIES.values() for f in fields(e)},
    "mobility.m_x": ("m_x", float, 1.0),
    "mobility.m_psi": ("m_psi", float, 1.0),
    "model.variant": ("variant", ModelVariant, ModelVariant.FULL_COUPLED),
    "stepper.dt": ("dt", float, _REQUIRED),
    "stepper.scheme": ("scheme", Scheme, Scheme.IMEX1),
    "run.t_end": ("t_end", float, _REQUIRED),
    "run.record_every": ("record_every", int, 100),
    "run.snapshot_times": ("snapshot_times", tuple, ()),
    "run.output_dir": ("output_dir", str, "out"),
    "initial.h": ("initial_h", str, "sin2x_sin2y"),
    "initial.h_amplitude": ("h_amplitude", float, 1.0),
    "initial.psi": ("initial_psi", float, _REQUIRED),  # or file:<path>
}
_POSITIVE = ("grid.lx", "grid.ly", "mobility.m_x", "mobility.m_psi", "run.t_end", "run.record_every")


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _one_of(key: str, names: str, raw: str) -> ConfigError:
    return ConfigError(f"key '{key}' must be one of {names}; got '{raw}'")


def _convert(key: str, cls: type, raw: str):
    """The value of the document text ``raw`` as the schema type ``cls`` of
    ``key``; ``initial.psi`` also takes ``file:<path>``."""
    if raw != raw.strip() or len(raw.splitlines()) > 1:
        raise ConfigError(f"key '{key}' must be one line without leading or trailing blanks; got {raw!r}")
    if key == "initial.psi" and raw.startswith("file:"):
        return raw
    try:
        if cls is tuple:
            return tuple(map(_finite_float, raw.split(","))) if raw else ()
        return _finite_float(raw) if cls is float else cls(raw)
    except ValueError as exc:
        if issubclass(cls, enum.Enum):
            raise _one_of(key, ", ".join(m.value for m in cls), raw) from None
        if key == "initial.psi":
            raise ConfigError(f"key 'initial.psi' must be a number or file:<path>; got '{raw}'") from None
        raise ConfigError(f"type mismatch for key '{key}': {exc}") from None


def _mismatch(key: str, cls: type, value) -> ConfigError:
    return ConfigError(
        f"type mismatch for key '{key}': expected {cls.__name__}, got {type(value).__name__} {value!r}"
    )


def _text(value) -> str:
    """The document text of a config value; inverse of :func:`_convert`."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return ", ".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


def _plain(value):
    """``value`` with each numpy scalar, in a tuple too, as its Python value."""
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value.item() if isinstance(value, np.generic) else value


def _entries(config: RunConfig) -> dict[str, object]:
    """``{key: value}`` for each key of the config's document, in the order
    :func:`format_config` writes them, numpy scalars as Python values; an
    energy that is not a preset has no ``energy.*`` keys."""
    e = config.energy
    kind = next((k for k, preset in _ENERGIES.items() if type(e) is preset), None)
    energy = {} if kind is None else {"energy": kind, **{f.name: getattr(e, f.name) for f in fields(e)}}
    return {
        key: _plain(energy[name] if key.startswith("energy.") else getattr(config, name))
        for key, (name, _, _) in _SCHEMA.items()
        if not key.startswith("energy.") or name in energy
    }


def check_dt(dt: float, t_end: float, name: str) -> None:
    """The time-step rule: ``dt`` is finite, > 0, <= ``t_end``, and divides
    ``t_end`` into whole steps (to the 1e-9 that the run's step count
    allows).  ``name`` says in the error where ``dt`` came from."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"{name} must be > 0 and finite, got {dt}")
    if dt > t_end:
        raise ConfigError(f"{name} must be <= run.t_end ({dt} > {t_end})")
    steps = t_end / dt
    if abs(steps - round(steps)) > 1e-9:
        raise ConfigError(f"{name} must divide run.t_end ({t_end} / {dt} = {steps!r} steps)")


def parse_config(text: str) -> RunConfig:
    """Parse a configuration document into a :class:`RunConfig`.

    Parsing owns what belongs to the document: its syntax, unknown,
    duplicate, missing and foreign ``energy.*`` keys, the conversion of each
    value to its type, and building the energy preset.  The value rules are
    checked by :class:`RunConfig` itself.
    """
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
        values[key] = _convert(key, _SCHEMA[key][1], raw)
    if unknown:
        raise ConfigError("unknown keys: " + ", ".join(sorted(unknown)))

    missing = [k for k, (_, _, default) in _SCHEMA.items() if default is _REQUIRED and k not in values]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(sorted(missing)))

    kind = values["energy.kind"]
    if kind not in _ENERGIES:
        raise _one_of("energy.kind", ", ".join(_ENERGIES), kind)
    keys = [f"energy.{f.name}" for f in fields(_ENERGIES[kind])]
    foreign = sorted(k for k in values if k.startswith("energy.") and k not in ("energy.kind", *keys))
    if foreign:
        raise ConfigError(f"keys not used by energy.kind = {kind}: {', '.join(foreign)}")

    values.setdefault("grid.ny", values["grid.nx"])
    values = {key: values.get(key, default) for key, (_, _, default) in _SCHEMA.items()}
    try:
        energy = _ENERGIES[kind](*(values[k] for k in keys))
    except ValueError as exc:
        raise ConfigError(f"invalid energy parameters ({'/'.join(keys)}): {exc}") from None
    names = {key: name for key, (name, _, _) in _SCHEMA.items() if not key.startswith("energy.")}
    return RunConfig(energy=energy, **{name: values[key] for key, name in names.items()})


def format_config(config: RunConfig) -> str:
    """Emit the fully explicit document for a config; inverse of parsing."""
    entries = _entries(config)
    if "energy.kind" not in entries:
        raise TypeError(f"unknown energy model {type(config.energy).__name__}")
    return "".join(f"{key} = {_text(value)}\n" for key, value in entries.items())


# -- builders ---------------------------------------------------------------


def build_grid(config: RunConfig) -> Grid:
    return Grid(config.nx, config.ny, config.lx, config.ly)


def _describe(grid: Grid) -> str:
    return f"{grid.nx}x{grid.ny} on {grid.lx!r} x {grid.ly!r}"


def _field_from_snapshot(value: str, which: str, grid: Grid) -> ScalarField:
    """The ``which`` slot ("h" or "psi") of the snapshot named by ``file:<path>``."""
    path, key = value.removeprefix("file:"), f"initial.{which}"
    try:
        loaded = read_snapshot(path)
    except (OSError, SnapshotError) as exc:
        # The path is named once, here: ``strerror`` leaves it out of an
        # OSError, and a SnapshotError names only the fault.
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError(f"key '{key}': cannot read snapshot '{path}': {reason}") from None
    if loaded.grid != grid:
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
    """Materialize the initial (h, psi) fields at t = 0; a snapshot density
    outside the energy's ``domain`` is refused."""
    if grid is None:
        grid = build_grid(config)

    if config.initial_h == "zero":
        h = grid.zeros()
    elif config.initial_h == "sin2x_sin2y":
        h = grid.from_function(lambda x, y: config.h_amplitude * np.sin(2.0 * x) * np.sin(2.0 * y))
    else:
        h = _field_from_snapshot(config.initial_h, "h", grid)

    if isinstance(config.initial_psi, str):
        psi = _field_from_snapshot(config.initial_psi, "psi", grid)
        escape = _escape(psi.values, config.energy.domain)
        if escape:
            path = config.initial_psi.removeprefix("file:")
            raise ConfigError(f"key 'initial.psi': snapshot '{path}' holds {escape}")
    else:
        psi = grid.constant(config.initial_psi)

    return FlowState(t=0.0, h=h, psi=psi, step_index=0)
