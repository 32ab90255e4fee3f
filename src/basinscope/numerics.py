"""Low-level numerics: integer arguments, the power-of-two test and singular values.

Storage convention for the toolkit: tensors are row-major float32, all
reductions (dots, norms, losses) accumulate in float64.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DomainError, SizeError


def _as_int(value, what: str) -> int:
    """``value`` as a Python int; numpy integers are accepted, bools and non-integers are not."""
    if isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


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
