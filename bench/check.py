"""Output checking behind ``ops_ok_share``.

An operation is one pipeline step (a call into the public ``basinscope``
API plus the outputs the benchmark derives from it). It fails when it raises
or when one of its outputs misses the reference recorded for the same size,
workload and input variant. Discrete outputs (digests, predictions, verdicts,
feasibility grids, counts) must match exactly; real outputs, kept as Python
floats, must match within ``REAL_RTOL``/``REAL_ATOL``.
"""

from __future__ import annotations

import hashlib
import json
import math
import traceback
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).resolve().parent / "references.json"

# Real outputs come from a deterministic float64 pipeline with one BLAS
# thread, so they repeat bit for bit; the tolerance only admits changes in
# the last few digits, such as a LAPACK SVD in place of the Jacobi one.
REAL_RTOL = 1e-6
REAL_ATOL = 1e-9


def digest(*arrays) -> str:
    """SHA-256 over the raw bytes, dtype and shape of each array."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _matches(got, want) -> bool:
    if isinstance(got, float) and isinstance(want, float):
        return math.isclose(got, want, rel_tol=REAL_RTOL, abs_tol=REAL_ATOL)
    return got == want


def _call(fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Ops:
    """Counts attempted and failed operations and keeps their outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outputs: list[tuple[str, dict]] = []  # (op name, outputs) in call order
        self.timer = _call  # calls fn(*args, **kwargs); a StageClock's ``time`` times it

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn -> (result, outputs dict); a raise counts as a failure."""
        self.attempted += 1
        try:
            result, outputs = self.timer(fn, *args, **kwargs)
        except Exception:  # a failing library call is a measured outcome, not a crash
            self.failed += 1
            self.problems.append(f"{name}: raised\n{traceback.format_exc(limit=3)}")
            return None
        self.outputs.append((name, outputs))
        return result

    def compare(self, reference: dict) -> None:
        """Fail each completed op whose outputs miss the reference."""
        for name, outputs in self.outputs:
            want = reference.get(name)
            if want is None:
                self.failed += 1
                self.problems.append(f"{name}: no reference recorded")
                continue
            bad = [
                key
                for key in sorted(set(want) | set(outputs))
                if key not in outputs or key not in want or not _matches(outputs[key], want[key])
            ]
            if bad:
                self.failed += 1
                shown = ", ".join(f"{k}: got {outputs.get(k)!r}, want {want.get(k)!r}" for k in bad[:3])
                self.problems.append(f"{name}: output differs ({shown})")

    def first_outputs(self) -> dict:
        """Outputs of one repetition, keyed by op name (for recording)."""
        recorded: dict = {}
        for name, outputs in self.outputs:
            recorded.setdefault(name, outputs)
        return recorded


def load_references() -> dict:
    if not REFERENCE_FILE.exists():
        return {}
    return json.loads(REFERENCE_FILE.read_text())


def save_reference(size: str, workload: str, variant: int, outputs: dict) -> None:
    refs = load_references()
    refs.setdefault(size, {}).setdefault(workload, {})[str(variant)] = outputs
    REFERENCE_FILE.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n")
