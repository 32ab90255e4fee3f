import ast
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
    """The library runs on numpy alone; scipy is a test dependency, so no
    module may import it. Nothing in the library starts a worker process or
    a thread: after importing every module and running a two-epoch
    ``train``, the process has its main thread alone and has not imported
    ``concurrent.futures``."""
    code = (
        "import importlib, pkgutil, sys, threading\n"
        f"sys.path.insert(0, {str(Path(basinscope.__file__).parents[1])!r})\n"
        "import basinscope\n"
        "names = [m.name for m in pkgutil.iter_modules(basinscope.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('basinscope.' + name)\n"
        "from basinscope.model import TINY4\n"
        "from basinscope.trainer import DataSpec, TrainConfig, train\n"
        "train(TrainConfig(TINY4, DataSpec(('source',), n_train=100, n_test=50), epochs=2, batch_size=50))\n"
        "found = sorted(m for m in ('scipy', 'multiprocessing', 'concurrent.futures') if m in sys.modules)\n"
        "print(len(names), threading.active_count(), found)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split(maxsplit=2)
    assert int(out[0]) >= 10
    assert int(out[1]) == 1
    assert out[2].strip() == "[]"


SETTABLE_OPTIONS = 39


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", None) == "dataclass" or getattr(target, "attr", None) == "dataclass":
            return True
    return False


def _init_false(value: ast.expr) -> bool:
    return (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", None) == "field"
        and any(k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False for k in value.keywords)
    )


def _defaulted(fn: ast.FunctionDef, prefix: str) -> list[str]:
    args = fn.args.posonlyargs + fn.args.args
    names = [a.arg for a in args[len(args) - len(fn.args.defaults) :]] if fn.args.defaults else []
    names += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return [f"{prefix}{fn.name}({name})" for name in names]


def settable_options() -> list[str]:
    """Defaulted parameters of public functions and methods, and defaulted
    public dataclass fields other than field(init=False), over the package."""
    found = []
    for path in sorted(Path(basinscope.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found += _defaulted(node, f"{path.stem}.")
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                prefix = f"{path.stem}.{node.name}."
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found += _defaulted(item, prefix)
                    elif (
                        _is_dataclass(node)
                        and isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and not item.target.id.startswith("_")
                        and item.value is not None
                        and not _init_false(item.value)
                    ):
                        found.append(prefix + item.target.id)
    return found


def test_settable_option_count():
    """A new knob must show up in review: raise SETTABLE_OPTIONS only on purpose."""
    options = settable_options()
    assert len(options) == SETTABLE_OPTIONS, f"{len(options)} settable options:\n" + "\n".join(options)


PUBLIC_NAMES = 110


def public_names() -> list[str]:
    """Public module-level functions and classes over the package, and the
    public methods of those classes."""
    found = []
    for path in sorted(Path(basinscope.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found.append(f"{path.stem}.{node.name}")
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            found.append(f"{path.stem}.{node.name}.{item.name}")
    return found


def test_public_name_count():
    """New API must show up in review: raise PUBLIC_NAMES only on purpose."""
    names = public_names()
    assert len(names) == PUBLIC_NAMES, f"{len(names)} public names:\n" + "\n".join(names)


SOURCE_STATEMENTS = 1706


def source_statements() -> int:
    """AST statements over the package, docstrings not counted, so comments
    and formatting do not move the count."""
    count = 0
    for path in sorted(Path(basinscope.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            count += isinstance(node, ast.stmt)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node) is not None:
                count -= 1
    return count


def test_source_statement_count():
    """Code growth and shrinkage must both show up in review: move
    SOURCE_STATEMENTS only on purpose."""
    assert source_statements() == SOURCE_STATEMENTS
