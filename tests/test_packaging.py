"""The package metadata declares only what exists: every console script
named in ``pyproject.toml`` imports and is callable, and the package root's
``__all__`` lists exactly the public names it binds, each of which resolves."""

import ast
import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_declared_script_imports():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_root_exports_exactly_its_public_bindings():
    tamedyn = importlib.import_module("tamedyn")
    tree = ast.parse(Path(tamedyn.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    assert sorted(tamedyn.__all__) == sorted(n for n in bound if not n.startswith("_"))
    for name in tamedyn.__all__:
        assert hasattr(tamedyn, name), name
