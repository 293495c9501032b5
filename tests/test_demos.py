"""The demos import only names the package has.

The demos are not run by the suite, so a removed or renamed public name
would break them silently.  Each script is parsed, not executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"


def gradflow_imports(path):
    """``(module, name)`` for every ``from gradflow[...] import name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module is not None
        and node.module.split(".")[0] == "gradflow"
        for alias in node.names
    ]


@pytest.mark.parametrize("path", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = gradflow_imports(path)
    assert imports, f"{path.name} imports nothing from gradflow"
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} imports missing names: {missing}"
