"""Deterministic PRNG streams with Gaussian and uniform-in-ball sampling.

SplitMix64 expands a user seed into xoshiro256++ state; the stream id keeps
independent uses (data, init, batch order, noise, sampling) on separate,
non-overlapping sequences. Everything is integer arithmetic mod 2^64, so a
given (seed, stream_id) pair produces the same sequence on every platform.

The seeding and the state recurrence are written once and run either on
Python ints (one ``RngStream``) or on ``uint64`` arrays, where numpy wraps
mod 2^64 silently and one array op steps many streams in lockstep
(``lane_uniforms``). Arrays must be at least 1-D: numpy scalars warn on
overflow.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a well-dispersed 64-bit hash of ``x``."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_stream_id(*parts: int) -> int:
    """Fold integer parts into one stream id (order-sensitive).

    A part may be a 1-D ``uint64`` array, giving one id per element.
    """
    sid = 0
    for part in parts:
        sid = mix64(((sid + _GOLDEN) & _MASK64) ^ (part & _MASK64))
    return sid


def _seed_state(seed, stream_id) -> list:
    """xoshiro256++ state words for (seed, stream_id), expanded by SplitMix64."""
    state = (seed ^ mix64(stream_id)) & _MASK64
    s = []
    for _ in range(4):
        state = (state + _GOLDEN) & _MASK64
        s.append(mix64(state))
    # the all-zero state is a fixed point of the recurrence
    s[0] = s[0] + ((s[0] | s[1] | s[2] | s[3]) == 0)
    return s


def _xoshiro_fill(s: list, out) -> list:
    """Write the next len(out) xoshiro256++ outputs of state ``s`` to out[0], out[1], ...

    Returns the advanced state. Array state words are updated in place.
    """
    s0, s1, s2, s3 = s
    mask = _MASK64
    for i in range(len(out)):
        r = (s0 + s3) & mask
        out[i] = (((r << 23) | (r >> 41)) + s0) & mask
        t = (s1 << 17) & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & mask
    return [s0, s1, s2, s3]


def _unit(raw: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of raw 64-bit draws."""
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53


def lane_uniforms(seed: int, stream_ids, n: int) -> np.ndarray:
    """(len(stream_ids), n) uniforms, row i equal to RngStream(seed, stream_ids[i]).uniform(n).

    All streams advance in lockstep, one numpy op per term of the recurrence
    over the stream axis, so the cost per draw falls with the number of
    streams.
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    ids = np.asarray(stream_ids, dtype=np.uint64).reshape(-1)
    raw = np.empty((n, ids.size), dtype=np.uint64)
    _xoshiro_fill(_seed_state(operator.index(seed) & _MASK64, ids), raw)
    return _unit(raw.T)


class RngStream:
    """xoshiro256++ stream identified by (seed, stream_id).

    ``position`` counts raw 64-bit draws, so a stream serialized as
    (seed, stream_id, position) resumes the identical sequence.
    """

    __slots__ = ("seed", "stream_id", "position", "_s")

    def __init__(self, seed: int, stream_id: int = 0):
        # operator.index turns numpy integers into Python ints, which never overflow
        self.seed = operator.index(seed) & _MASK64
        self.stream_id = operator.index(stream_id) & _MASK64
        self.position = 0
        self._s = _seed_state(self.seed, self.stream_id)

    def next_u64(self) -> int:
        out = [0]
        self._s = _xoshiro_fill(self._s, out)
        self.position += 1
        return out[0]

    def _raw_block(self, n: int) -> np.ndarray:
        """n raw 64-bit outputs as uint64 (tight loop for bulk draws)."""
        out = np.empty(n, dtype=np.uint64)
        self._s = _xoshiro_fill(self._s, out)
        self.position += n
        return out

    def uniform(self, n: int | None = None):
        """Uniform doubles in [0, 1) using the top 53 bits per draw."""
        if n is None:
            return (self.next_u64() >> 11) * 2.0**-53
        return _unit(self._raw_block(n))

    def randint_below(self, bound: int) -> int:
        """Unbiased integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise DomainError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n): swap a[i], a[j<=i] for i = n-1..1."""
        if n < 0:
            raise DomainError("n must be non-negative")
        a = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.randint_below(i + 1)
            a[i], a[j] = a[j], a[i]
        return a

    def state(self) -> tuple[int, int, int]:
        return (self.seed, self.stream_id, self.position)

    @classmethod
    def restore(cls, seed: int, stream_id: int, position: int) -> "RngStream":
        """Rebuild a stream and fast-forward to ``position`` raw draws."""
        if position < 0:
            raise DomainError("position must be non-negative")
        rng = cls(seed, stream_id)
        chunk = 1 << 14
        remaining = position
        while remaining > 0:
            k = min(chunk, remaining)
            rng._raw_block(k)
            remaining -= k
        return rng

    def split(self, *parts: int) -> "RngStream":
        """Child stream keyed off this stream's id plus extra parts."""
        return RngStream(self.seed, derive_stream_id(self.stream_id, *parts))


def gaussian(rng: RngStream, n: int, std: float) -> np.ndarray:
    """i.i.d. N(0, std^2) samples via Box-Muller on the deterministic stream.

    Consumes exactly 2*ceil(n/2) raw draws so replay does not depend on n's
    parity history.
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    if std < 0:
        raise DomainError("std must be non-negative")
    pairs = (n + 1) // 2
    u = rng._raw_block(2 * pairs)
    # u1 in (0, 1] to keep log finite; u2 in [0, 1)
    u1 = ((u[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (u[pairs:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    z = np.empty(2 * pairs, dtype=np.float64)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return std * z[:n]


def uniform_in_ball(rng: RngStream, center: Sequence[float] | np.ndarray, radius: float) -> np.ndarray:
    """Uniform sample from the closed n-ball around ``center``.

    Gaussian direction normalized to the sphere, then scaled by
    radius * U^(1/n) so the radial CDF is r^n.
    """
    if radius < 0:
        raise DomainError("radius must be non-negative")
    center = np.asarray(center, dtype=np.float64)
    n = center.size
    if radius == 0:
        return center.copy()
    while True:
        direction = gaussian(rng, n, 1.0)
        norm = math.sqrt(float(np.dot(direction, direction)))
        if norm > 0:
            break
    r = radius * rng.uniform() ** (1.0 / n)
    return center + direction * (r / norm)
