import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import basinscope

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_declared_scripts_import():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for group in ("scripts", "gui-scripts"):
        for name, target in project.get(group, {}).items():
            module, _, function = target.partition(":")
            assert callable(getattr(importlib.import_module(module), function)), name


def test_importing_every_module_pulls_in_neither_scipy_nor_multiprocessing():
    """scipy.stats costs tens of MB of resident memory, so only the functions
    that need it import it; nothing in the library starts worker processes."""
    code = (
        "import importlib, pkgutil, sys\n"
        f"sys.path.insert(0, {str(Path(basinscope.__file__).parents[1])!r})\n"
        "import basinscope\n"
        "names = [m.name for m in pkgutil.iter_modules(basinscope.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('basinscope.' + name)\n"
        "print(len(names), sorted(m for m in ('scipy', 'multiprocessing') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split(maxsplit=1)
    assert int(out[0]) >= 10
    assert out[1].strip() == "[]"
