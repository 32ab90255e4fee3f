import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_declared_scripts_import():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for group in ("scripts", "gui-scripts"):
        for name, target in project.get(group, {}).items():
            module, _, function = target.partition(":")
            assert callable(getattr(importlib.import_module(module), function)), name
