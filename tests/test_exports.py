"""The package exports what its runs call.

Every function, method and property that a module of the package defines
under a name of its ``__all__`` must be called by one of a short set of
in-process runs: every variant under both schemes, every energy kind, a
flat initial height, a restart from a written snapshot, an aborting run,
and the command line's ``run``, ``compare`` and ``sweep``.  A name that no
run needs belongs in ``spectral_reference`` (or nowhere), so that the
tests check the code the solver runs.

The runs are on 16x16 grids, where nothing runs on the helper thread:
``sys.setprofile`` sees the calling thread only.
"""

import contextlib
import importlib
import inspect
import io
import sys
from dataclasses import replace

import pytest

import gradflow
from gradflow import ModelVariant, Scheme, parse_config, simulate
from gradflow.cli import main

MODULES = ("spectral", "geometry", "energy", "flow", "diagnostics", "config", "snapshot", "runner", "cli")

# Exported, and called by no run; each with its reason.
EXEMPT = (
    ("spectral.derivatives", "perfbench/test_harness.py imports it (ROADMAP items 1 and 9)"),
    ("spectral.get_fft_workers", "perfbench/worker.py imports it (ROADMAP items 1 and 9)"),
    ("energy.EnergyModel.density", "perfbench/spans.py binds it as FloryHuggins.density (items 1 and 9)"),
    ("energy.EnergyModel.derivatives", "abstract: every preset defines its own"),
)

BASE = """
grid.nx = 16
energy.kind = quadratic
stepper.dt = 1e-3
run.t_end = 3e-3
run.record_every = 1
initial.psi = 0.25
"""

# Explicit Euler at this dt leaves finite fields for six steps, then aborts.
ABORTING = """
grid.nx = 16
energy.kind = flory_huggins
mobility.m_x = 5.0
stepper.dt = 0.05
stepper.scheme = explicit_euler
run.t_end = 0.5
initial.psi = 0.25
"""


def exported(short):
    """``{code: name}`` of every function, method and property that
    ``gradflow.<short>`` defines under a name of its ``__all__``; a name is
    ``<short>.<qualified name>``.  Methods a decorator generates, such as a
    dataclass's ``__init__``, are not the module's own code."""
    module = importlib.import_module(f"gradflow.{short}")
    found = {}
    for name in module.__all__:
        obj = getattr(module, name)
        members = vars(obj).values() if inspect.isclass(obj) else (obj,)
        for member in members:
            fn = member.fget if isinstance(member, property) else member
            if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                found[fn.__code__] = f"{short}.{fn.__qualname__}"
    return found


def the_runs(tmp):
    """Run every case once; each must end as it is expected to."""
    base = parse_config(BASE)
    for variant in ModelVariant:
        for scheme in Scheme:
            assert len(simulate(replace(base, variant=variant, scheme=scheme)).records) == 4
    for kind in ("constant", "linear", "flory_huggins"):
        assert not simulate(parse_config(BASE.replace("quadratic", kind))).aborted
    assert not simulate(replace(base, initial_h="zero")).aborted

    first = tmp / "first"
    simulate(replace(base, snapshot_times=(0.0,)), out_dir=first)
    restart = f"file:{first / 'final.sgf'}"
    assert not simulate(replace(base, initial_h=restart, initial_psi=restart)).aborted

    assert simulate(parse_config(ABORTING)).aborted

    cfg = tmp / "run.cfg"
    cfg.write_text(BASE)
    ladder = ["--dt-ladder", "1e-3,5e-4,2.5e-4"]
    commands = [
        ["run", str(cfg), "--out", str(tmp / "run")],
        ["compare", str(cfg), "--out", str(tmp / "compare")],
        ["sweep", str(cfg), "--out", str(tmp / "mass"), *ladder],
        ["sweep", str(cfg), "--out", str(tmp / "trajectory"), *ladder, "--quantity", "trajectory_error"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert [main(args) for args in commands] == [0, 0, 0, 0]


@pytest.fixture(scope="module")
def called(tmp_path_factory):
    """The code objects the runs call."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        the_runs(tmp_path_factory.mktemp("runs"))
    finally:
        sys.setprofile(None)
    return codes


@pytest.mark.parametrize("short", MODULES)
def test_the_runs_call_every_exported_function(short, called):
    code = exported(short)
    assert code
    exempt = sorted(name for name, _ in EXEMPT if name.startswith(f"{short}."))
    assert sorted(name for c, name in code.items() if c not in called) == exempt


def test_the_probe_covers_every_module_the_package_exports_from():
    # gradflow.__all__ gathers the modules' own lists; cli adds main.
    covered = {n for short in MODULES for n in importlib.import_module(f"gradflow.{short}").__all__}
    assert set(gradflow.__all__) - {"__version__"} <= covered
