"""Host-speed calibration for the timed phase and the set-up.

On a few shared vCPUs the same code runs up to half again slower for
seconds to minutes at a time, as other tenants load the host; wall times
taken minutes apart then differ by more than any change worth measuring.
The benchmark therefore runs a fixed kernel, independent of ``basinscope``,
before and after every timed operation, and scales each operation's wall
time by how fast the kernel ran around it:

    scaled seconds = wall seconds * REFERENCE_S / median kernel time nearby

"Nearby" is every kernel sample taken within ``WINDOW_S`` of the
operation. Scaled seconds are wall seconds at the speed the host had when
``REFERENCE_S`` was measured; a change to the library moves them in
proportion to wall seconds, while a slow phase of the host slows the kernel
too and largely cancels out. The kernel mixes what the library spends its
time on: Python integer arithmetic (the pure-Python RNG), im2col convs on a
small cache-resident batch and on a large one, and elementwise float64 work.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on a 2-vCPU Intel Xeon VM with one BLAS thread. Only
# ratios to it matter, so it stays fixed across commits.
REFERENCE_S = 0.011
WINDOW_S = 1.0

_MASK64 = (1 << 64) - 1
_gen = np.random.default_rng(0x5EED)
_SMALL = _gen.standard_normal((16, 16, 16, 8)).astype(np.float32)  # a small batch, cache-resident
_LARGE = _gen.standard_normal((64, 16, 16, 8))  # a large float64 batch, ~9 MB of patches
_WEIGHTS = _gen.standard_normal((72, 16))
_WRAP = (np.arange(16)[:, None] + np.arange(3)[None, :] - 1) % 16  # circular 3x3 taps
_VECTOR = _gen.standard_normal(100_000)


def _conv(images: np.ndarray) -> np.ndarray:
    """A 3x3 conv by im2col: gather, GEMM, ReLU."""
    patches = images[:, _WRAP[:, None, :, None], _WRAP[None, :, None, :], :]
    return np.maximum(patches.reshape(-1, 72) @ _WEIGHTS.astype(images.dtype), 0)


def kernel() -> float:
    """A fixed mix of the library's kinds of work; returns a checksum."""
    x = 0x9E3779B97F4A7C15
    for _ in range(4000):  # xorshift on Python ints, like the RNG
        x ^= (x << 13) & _MASK64
        x ^= x >> 7
        x ^= (x << 17) & _MASK64
    total = float(x & 1)
    for _ in range(4):
        total += float(_conv(_SMALL)[0, 0])
    total += float(_conv(_LARGE)[0, 0])
    y = np.exp(-np.abs(_VECTOR)) * np.log1p(_VECTOR * _VECTOR)
    return total + float(y[0])


class Speedometer:
    """Kernel samples taken over a run, as (start, end) on perf_counter."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter()))

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of [start, end]."""
        near = [e - s for s, e in self.samples if start - WINDOW_S <= (s + e) / 2 <= end + WINDOW_S]
        return REFERENCE_S / statistics.median(near)
