"""The demos and the README's examples import only names the package has,
the quick demos and the README's examples run, and the README documents
exactly the config keys the parser accepts.

Every demo is parsed for its imports, and each call of an imported gradflow
name is bound to that name's signature.  The demos that exercise the field
API and take about a second (01, 02 and 05) are also run, each in its own
process; the three longer runs (03, 04 and 06, 5-11 s each) are only parsed.
The ``python`` blocks of README.md are short, and they are also run.
"""

import ast
import importlib
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"

SOURCES = [(p.name, p.read_text()) for p in sorted(DEMO_DIR.glob("*.py"))]
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
assert README_BLOCKS, "README.md has no python examples"
SOURCES += [(f"README.md:{i}", block) for i, block in enumerate(README_BLOCKS, start=1)]


def gradflow_imports(source, filename):
    """``(module, name)`` for every ``from gradflow[...] import name``."""
    tree = ast.parse(source, filename=filename)
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module is not None
        and node.module.split(".")[0] == "gradflow"
        for alias in node.names
    ]


@pytest.mark.parametrize("name, source", SOURCES, ids=[name for name, _ in SOURCES])
def test_demo_imports_exist(name, source):
    imports = gradflow_imports(source, name)
    assert imports, f"{name} imports nothing from gradflow"
    missing = [
        f"{module}.{attr}"
        for module, attr in imports
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, f"{name} imports missing names: {missing}"


@pytest.mark.parametrize("name, source", SOURCES, ids=[name for name, _ in SOURCES])
def test_demo_calls_bind_to_the_signatures(name, source):
    # A call's positional count and keyword names must fit the callee, so a
    # signature change shows in the demos that are only parsed.
    called = {
        attr: getattr(importlib.import_module(module), attr, None)
        for module, attr in gradflow_imports(source, name)
    }
    wrong = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        fn = called.get(node.func.id)
        if fn is None or any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue
        try:
            inspect.signature(fn).bind(*node.args, **{k.arg: None for k in node.keywords})
        except TypeError as exc:
            wrong.append(f"line {node.lineno}: {node.func.id}: {exc}")
    assert not wrong, f"{name}: {wrong}"


@pytest.mark.parametrize(
    "demo", ["01_spectral_and_geometry.py", "02_mean_curvature_flow.py", "05_gauge_experiment.py"]
)
def test_quick_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, str(DEMO_DIR / demo)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_readme_python_blocks_run(capsys):
    # The blocks continue one another, so they share one namespace.
    namespace = {"__name__": "readme"}
    for i, block in enumerate(README_BLOCKS, start=1):
        exec(compile(block, f"README.md:{i}", "exec"), namespace)
    printed = capsys.readouterr().out.split()
    assert printed and all(math.isfinite(float(x)) for x in printed)
    assert namespace["state"].step_index == 101


def test_readme_configuration_table_lists_the_schema():
    from gradflow.config import _SCHEMA

    section = (ROOT / "README.md").read_text().split("## Configuration", 1)[1]
    table = section.split("\n\n| Key |", 1)[1].split("\n\n", 1)[0]
    first_cells = re.findall(r"^\| (.*?) \|", table, re.M)
    documented = [k for cell in first_cells for k in re.findall(r"`([a-z_]+\.[a-z_0-9]+)`", cell)]
    assert sorted(documented) == sorted(_SCHEMA)
