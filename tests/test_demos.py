"""The demos import only names the package has.

Each demos/*.py is parsed, never run, and every name it imports from
growthfpt or one of its modules is looked up there.
"""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def package_imports(path: pathlib.Path):
    """(module, name) of every `from growthfpt... import name` in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "growthfpt"):
            yield from ((node.module, alias.name) for alias in node.names)


def test_every_demo_is_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_exist(path):
    names = list(package_imports(path))
    assert names, f"{path.name} imports nothing from growthfpt"
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} imports missing names: {missing}"
