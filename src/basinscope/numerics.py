"""Low-level numerics: the argument rules and the power-of-two test.

Storage convention for the toolkit: tensors are row-major float32, all
reductions (dots, norms, losses) accumulate in float64.

Public entry points check arguments by three rules, raising DomainError: a
count is an int at least its bound (``_as_int``), a real a finite float
(``_as_real``; ``_as_grid`` for a strictly increasing 1-D grid of them and
``_as_vector`` for a 1-D vector, SizeError if either is not 1-D), and a flag
a bool (``_as_flag``).
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


def _as_vector(values, what: str) -> np.ndarray:
    """``values`` as a 1-D (else SizeError), finite float64 array."""
    vector = np.asarray(values, dtype=np.float64)
    if vector.ndim != 1:
        raise SizeError(f"{what} must be 1-D, got shape {vector.shape}")
    if not np.all(np.isfinite(vector)):
        raise DomainError(f"{what} must be finite")
    return vector


def _as_grid(values, what: str) -> np.ndarray:
    """``values`` as a non-empty, strictly increasing ``_as_vector``."""
    grid = _as_vector(values, what)
    if grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise DomainError(f"{what} must be non-empty and strictly increasing")
    return grid


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0

