"""The package metadata declares only what exists: every console script
named in ``pyproject.toml`` imports and is callable."""

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
