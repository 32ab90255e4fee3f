"""Exact singular values of network modules and the derived capacity terms.

A circular-padded stride-1 convolution on an n x n grid is block-diagonalized
by the 2-D DFT: zero-pad each kernel slice to n x n, transform, and the
union of the singular values of the per-frequency channel-mixing blocks is
the operator's exact spectrum. Dense layers contribute their plain matrix
spectra. Strided convs are analyzed as stride-1 operators on their input
grid (recorded in report metadata).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeError
from .model import _check_params
from .numerics import _as_int
from .trainer import Checkpoint


def conv_singular_values(kernel, input_size: int) -> np.ndarray:
    """All n^2 * min(Cin, Cout) singular values of the conv operator, descending."""
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 4:
        raise SizeError(f"kernel must be (k, k, Cin, Cout), got {kernel.shape}")
    k = kernel.shape[0]
    if kernel.shape[1] != k:
        raise SizeError("kernel spatial dims must be square")
    n = _as_int(input_size, "input size", 1)
    if k > n:
        raise DomainError(f"kernel size {k} exceeds input size {n}")
    cin, cout = kernel.shape[2], kernel.shape[3]
    padded = np.zeros((n, n, cin, cout), dtype=np.float64)
    padded[:k, :k] = kernel
    transform = np.fft.fft2(padded, axes=(0, 1))
    flat = dense_singular_values(transform.reshape(n * n, cin, cout)).ravel()
    flat.sort()
    return flat[::-1].copy()


def dense_singular_values(m) -> np.ndarray:
    """Singular values of a real or complex matrix, or of each matrix of a
    stack (..., M, N), descending along the last axis (LAPACK gesdd)."""
    a = np.asarray(m)
    if a.ndim < 2:
        raise SizeError(f"dense_singular_values expects a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("dense_singular_values requires finite entries")
    return np.linalg.svd(a.astype(np.complex128 if np.iscomplexobj(a) else np.float64), compute_uv=False)


@dataclass
class SpectrumReport:
    per_module: dict  # module -> descending singular values
    norms: dict  # module -> {"frobenius": .., "spectral": ..}
    conv_input_sizes: dict  # module -> n (conv modules only)


def network_spectrum(ckpt: Checkpoint) -> SpectrumReport:
    """Spectra of every module of a checkpoint, conv operators at their
    deployed input sizes; DomainError for parameters of another
    architecture, and for a conv whose input is not square, since the DFT
    diagonalization here covers n x n grids only."""
    _check_params(ckpt.params, ckpt.arch)
    per_module = {}
    conv_sizes = {}
    for layer in ckpt.arch.layer_plan():
        name = layer["name"]
        weight = ckpt.params.get(f"{name}.weight").astype(np.float64)
        if layer["kind"] == "conv":
            n, w = layer["in_hw"]
            if n != w:
                raise DomainError(f"{name} input is {n}x{w}; conv spectra need a square input")
            per_module[name] = conv_singular_values(weight, n)
            conv_sizes[name] = n
        else:
            per_module[name] = dense_singular_values(weight)
    norms = {}
    for name, values in per_module.items():
        norms[name] = {
            "frobenius": float(np.sqrt(np.sum(values**2))),
            "spectral": float(values[0]) if values.size else 0.0,
        }
    return SpectrumReport(per_module=per_module, norms=norms, conv_input_sizes=conv_sizes)


def norm_ratio_term(report: SpectrumReport) -> tuple[float, float]:
    """Sum of per-module Frobenius/spectral ratios and the log of the
    spectral-norm product."""
    ratio_sum = 0.0
    log_product = 0.0
    for name, norm in report.norms.items():
        if norm["spectral"] <= 0.0:
            raise DomainError(f"module {name} has zero spectral norm")
        ratio_sum += norm["frobenius"] / norm["spectral"]
        log_product += float(np.log(norm["spectral"]))
    return ratio_sum, log_product
