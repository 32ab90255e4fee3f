"""Low-level numerics: the argument rules, the power-of-two test and singular values.

Storage convention for the toolkit: tensors are row-major float32, all
reductions (dots, norms, losses) accumulate in float64.

Public entry points check arguments by three rules, raising DomainError: a
count is an int at least its bound (``_as_int``), a real a finite float
(``_as_real``; ``_as_grid`` for a strictly increasing 1-D grid of them,
SizeError if it is not 1-D), and a flag a bool (``_as_flag``).
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

from .errors import DomainError, SizeError


def _as_int(value, what: str, least: int | None = None) -> int:
    """``value`` as a Python int, at least ``least`` when given; numpy
    integers are accepted, bools and non-integers are not."""
    if isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise DomainError(f"{what} must be at least {least}")
    return value


def _as_real(value, what: str) -> float:
    """``value`` as a finite Python float; ints and numpy reals are accepted,
    bools, strings, other non-numbers, NaN and +-inf are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise DomainError(f"{what} must be a finite real number, got {value!r}")
    return float(value)


def _as_flag(value, what: str) -> bool:
    """``value`` as a Python bool; numpy bools are accepted, anything else
    (ints and strings such as ``"False"`` included) is not."""
    if not isinstance(value, (bool, np.bool_)):
        raise DomainError(f"{what} must be a bool, got {value!r}")
    return bool(value)


def _as_grid(values, what: str) -> np.ndarray:
    """``values`` as a 1-D (else SizeError), non-empty, finite, strictly increasing float64 array."""
    grid = np.asarray(values, dtype=np.float64)
    if grid.ndim != 1:
        raise SizeError(f"{what} must be 1-D, got shape {grid.shape}")
    if grid.size == 0 or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
        raise DomainError(f"{what} must be non-empty, finite and strictly increasing")
    return grid


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def svd_values(m) -> np.ndarray:
    """Singular values of a real or complex matrix, or of each matrix of a
    stack (..., M, N), descending along the last axis (LAPACK gesdd)."""
    a = np.asarray(m)
    if a.ndim < 2:
        raise SizeError(f"svd_values expects a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("svd_values requires finite entries")
    return np.linalg.svd(a.astype(np.complex128 if np.iscomplexobj(a) else np.float64), compute_uv=False)
