"""Spans around calls into the public functions of each ``basinscope`` layer.

The tracer wraps, from outside the library, every public module-level
function and every public plain method of the classes each layer module
defines, and rebinds the wrapper wherever a ``basinscope`` module holds the
original (``from .model import forward`` style imports included). The
library itself is not edited.

A span's self time is its duration minus the time covered by the spans it
caused; self time is summed per layer. Two per-draw RNG primitives are left
unwrapped because a wrapper would cost as much as the call; their time
falls to the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Layer name -> modules of ``basinscope`` that make it up.
LAYERS = {
    "rng": ("rng",),
    "dataops": ("dataops",),
    "model": ("model",),
    "trainer": ("trainer",),
    "landscape": ("landscape",),
    "similarity": ("similarity",),
    "criticality": ("criticality",),
    "basin": ("basin",),
    "spectrum": ("spectrum", "numerics"),
    "persistence": ("persistence",),
}

UNWRAPPED = {"RngStream.next_u64", "RngStream.randint_below"}


class Tracer:
    def __init__(self):
        self.enabled = False
        self._stack: list[list[float]] = []  # [start, child time] per open span
        self.self_s: dict[str, float] = defaultdict(float)  # layer -> self seconds
        self.calls: Counter = Counter()  # "layer.qualname" -> calls
        self.func_self_s: dict[str, float] = defaultdict(float)
        self.spans = 0

    def _wrap(self, layer: str, qualname: str, fn):
        key = f"{layer}.{qualname}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                self._stack.pop()
                own = duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                self.self_s[layer] += own
                self.func_self_s[key] += own
                self.calls[key] += 1
                self.spans += 1

        return traced

    def install(self) -> None:
        """Wrap the public callables of every layer module, once per process."""
        modules = {name: importlib.import_module(f"basinscope.{name}") for names in LAYERS.values() for name in names}
        loaded = [m for name, m in sys.modules.items() if name.startswith("basinscope.") and m is not None]
        for layer, names in LAYERS.items():
            for mod_name in names:
                module = modules[mod_name]
                for name, obj in list(vars(module).items()):
                    if name.startswith("_"):
                        continue
                    if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                        wrapper = self._wrap(layer, name, obj)
                        for other in loaded:
                            for attr, value in list(vars(other).items()):
                                if value is obj:
                                    setattr(other, attr, wrapper)
                    elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                        for meth_name, meth in list(vars(obj).items()):
                            qualname = f"{name}.{meth_name}"
                            if meth_name.startswith("_") or qualname in UNWRAPPED or not inspect.isfunction(meth):
                                continue
                            setattr(obj, meth_name, self._wrap(layer, qualname, meth))

    @contextmanager
    def paused(self):
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was
