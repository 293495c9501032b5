"""The demos and the README's examples import only names the package has,
the README's examples run, and the README documents exactly the config keys
the parser accepts.

The demos are not run by the suite, so a removed or renamed public name
would break them silently; each one is parsed, not executed.  The
``python`` blocks of README.md are short, and they are also run.
"""

import ast
import importlib
import math
import re
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
