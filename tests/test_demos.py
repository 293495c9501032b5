"""The demos and the README's examples import only names the package has.

The demos and the ``python`` blocks of README.md are not run by the suite,
so a removed or renamed public name would break them silently.  Each one is
parsed, not executed.
"""

import ast
import importlib
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
