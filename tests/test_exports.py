"""Every exported name resolves: a name deleted from a module but left in an
export list fails here rather than at a user's import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qrecovery

MODULES = sorted(info.name for info in pkgutil.iter_modules(qrecovery.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"qrecovery.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"qrecovery.{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"qrecovery.{name}.__all__ lists undefined names {missing}"


def test_package_reexports_resolve():
    tree = ast.parse(Path(qrecovery.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"qrecovery.{node.module}")
        for alias in node.names:
            assert getattr(qrecovery, alias.asname or alias.name) is getattr(module, alias.name)
