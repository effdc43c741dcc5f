"""The demos import only names the package has, and run.

Each demos/*.py is parsed, and every name it imports from growthfpt or one
of its modules is looked up there.  Each is also run from a copy in a
temporary directory, so its output directory is made there and the calls
it makes, not just its imports, must work.
"""

import ast
import importlib
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path):
    script = shutil.copy(path, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "output").is_dir()
