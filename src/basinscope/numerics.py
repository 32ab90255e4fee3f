"""Low-level numerics: square power-of-two FFTs and singular values.

Storage convention for the toolkit: tensors are row-major float32, all
reductions (dots, norms, losses) accumulate in float64.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, SizeError


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def as_f32(x, shape=None) -> np.ndarray:
    """Contiguous float32 view/copy of ``x``, optionally shape-checked."""
    arr = np.ascontiguousarray(x, dtype=np.float32)
    if shape is not None and tuple(arr.shape) != tuple(shape):
        raise SizeError(f"expected shape {tuple(shape)}, got {arr.shape}")
    return arr


def require_finite(x, what: str = "input") -> np.ndarray:
    arr = np.asarray(x)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} contains non-finite entries")
    return arr


def fft2(x) -> np.ndarray:
    """Unnormalized 2-D DFT of a square power-of-two matrix."""
    arr = np.asarray(x)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SizeError(f"fft2 expects a square matrix, got {arr.shape}")
    n = arr.shape[0]
    if not is_power_of_two(n):
        raise SizeError(f"fft2 size must be a power of two, got {n}")
    return np.fft.fft2(arr.astype(np.complex128))


def inverse_fft2(y) -> np.ndarray:
    """Unnormalized inverse: inverse_fft2(fft2(x)) == x * n^2."""
    arr = np.asarray(y)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SizeError(f"inverse_fft2 expects a square matrix, got {arr.shape}")
    n = arr.shape[0]
    if not is_power_of_two(n):
        raise SizeError(f"inverse_fft2 size must be a power of two, got {n}")
    return np.fft.ifft2(arr.astype(np.complex128)) * (n * n)


def svd_values(m) -> np.ndarray:
    """Singular values of a real or complex matrix, or of each matrix of a
    stack (..., M, N), descending along the last axis (LAPACK gesdd)."""
    a = np.asarray(m)
    if a.ndim < 2:
        raise SizeError(f"svd_values expects a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("svd_values requires finite entries")
    return np.linalg.svd(a.astype(np.complex128 if np.iscomplexobj(a) else np.float64), compute_uv=False)
