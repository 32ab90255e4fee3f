"""Deterministic PRNG streams with Gaussian and uniform-in-ball sampling.

SplitMix64 expands a user seed into xoshiro256++ state; the stream id keeps
independent uses (data, init, batch order, noise, sampling) on separate,
non-overlapping sequences. Everything is integer arithmetic mod 2^64, so a
given (seed, stream_id) pair produces the same sequence on every platform.

A key (a seed, a stream id or a part folded into one) is an integer,
numpy integers included and bools not, reduced mod 2^64; anything else
raises DomainError. An integer array of stream ids wraps element-wise, so
-1 and 2^64 - 1 name the same stream. ``_key`` and ``_keys`` are that rule.

The seeding and the state recurrence are written once and run either on
Python ints (one ``RngStream``) or on 1-D ``uint64`` arrays, where numpy
wraps mod 2^64 silently and one array op steps many streams in lockstep
(``lane_uniforms``, ``lane_permutations``). A lone stream id skips the
lockstep and draws as its own ``RngStream``, with the same outputs.

One stream's bulk draws use the same lockstep through jump-ahead lanes
(Blackman & Vigna 2018; Haramoto et al. 2008). The state update is linear
over GF(2), so T^(2^k) is a 256 x 256 bit matrix; tables of them are built
on first use by squaring and cached, 8 KB each. A block of n >= _LANE_MIN
draws, the measured crossover below which the scalar loop is faster, is cut
into lanes of L = 2^a steps, L about sqrt(n)/4; the lane start states come
from log2(lanes) table products, the lanes run in lockstep, and the stream
ends in the state, and at the position, the scalar loop would reach.

Rejection sampling stays exact. ``permutation`` draws its n-1 raws as one
block and checks every draw against its bound's rejection limit at once;
if any falls at or above it, the stream rewinds and redraws one at a time.
``lane_permutations`` redraws such a lane with ``RngStream.permutation``.
Rejection is rarer than 2^-32 per draw below 2^32, so the fallback is there
to keep the outputs bit-identical by construction, not for speed.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError
from .numerics import _as_int, _as_real, _as_vector

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a well-dispersed 64-bit hash of ``x``."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _key(value, what: str) -> int:
    """``value`` as a key: an integer (not a bool) reduced mod 2^64."""
    return _as_int(value, what) & _MASK64


def _keys(values) -> np.ndarray:
    """Stream ids as a 1-D uint64 array: an integer array wraps element-wise,
    anything else goes through ``_key`` element by element."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(np.uint64, copy=False).reshape(-1)
    # object dtype keeps Python ints exact; numpy would turn [2**63, 0] into floats
    return np.array([_key(v, "stream id") for v in np.ravel(np.asarray(values, dtype=object))], dtype=np.uint64)


def derive_stream_id(*parts: int) -> int:
    """Fold keys into one stream id (order-sensitive).

    A part may be a 1-D array, giving one id per element.
    """
    sid = 0
    for part in parts:
        part = _keys(part) if isinstance(part, np.ndarray) else _key(part, "stream id part")
        sid = mix64(((sid + _GOLDEN) & _MASK64) ^ part)
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
    Python ints grow, so they are masked to 64 bits after each add and left
    shift; uint64 arrays wrap by themselves and shift by uint64 counts, so
    no op converts a Python int.
    """
    s0, s1, s2, s3 = s
    wrap = not isinstance(s0, np.ndarray)
    mask = _MASK64
    c17, c19, c23, c41, c45 = (17, 19, 23, 41, 45) if wrap else np.uint64([17, 19, 23, 41, 45])
    for i in range(len(out)):
        r = s0 + s3
        if wrap:
            r &= mask
        r = ((r << c23) | (r >> c41)) + s0
        t = s1 << c17
        if wrap:
            r &= mask
            t &= mask
        out[i] = r
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = (s3 << c45) | (s3 >> c19)
        if wrap:
            s3 &= mask
    return [s0, s1, s2, s3]


def _unit(raw: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of raw 64-bit draws."""
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _lane_raw(seed: int, stream_ids, n: int) -> np.ndarray:
    """(n, len(stream_ids)) raw draws, column i the first n of stream (seed, stream_ids[i]).

    One stream draws its own block: a one-column lockstep pays a numpy op
    per term of the recurrence for a single draw."""
    n, ids = _as_int(n, "n", 0), _keys(stream_ids)
    if ids.size == 1:
        return RngStream(seed, ids[0])._raw_block(n)[:, None]
    raw = np.empty((n, ids.size), dtype=np.uint64)
    _xoshiro_fill(_seed_state(_key(seed, "seed"), ids), raw)
    return raw


def lane_uniforms(seed: int, stream_ids, n: int) -> np.ndarray:
    """(len(stream_ids), n) uniforms, row i equal to RngStream(seed, stream_ids[i]).uniform(n).

    All streams advance in lockstep, one numpy op per term of the recurrence
    over the stream axis, so the cost per draw falls with the number of
    streams.
    """
    return _unit(_lane_raw(seed, stream_ids, n).T)


def _swap_targets(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fisher-Yates targets from n-1 raw draws along axis 0, one column per lane.

    Draw k picks j = x % (i + 1) for i = n-1-k, as ``randint_below(i + 1)``
    does; ``accepted`` says, per lane, that every draw lies below that
    bound's rejection limit, so the scalar loop would have taken it as is.
    """
    bound = np.arange(len(raw) + 1, 1, -1, dtype=np.uint64).reshape((-1,) + (1,) * (raw.ndim - 1))
    excess = (np.uint64(_MASK64) - bound + np.uint64(1)) % bound  # 2^64 mod bound
    accepted = (raw <= np.uint64(_MASK64) - excess).all(axis=0)
    return (raw % bound).astype(np.intp), accepted


def lane_permutations(seed: int, stream_ids, n: int) -> np.ndarray:
    """(len(stream_ids), n) permutations, row i equal to RngStream(seed, stream_ids[i]).permutation(n).

    The streams draw in lockstep and Fisher-Yates swaps one column of every
    row per step. A lane with a draw at or above its rejection limit is
    redrawn by ``RngStream.permutation``. One stream is its own
    ``RngStream.permutation``.
    """
    n, ids = _as_int(n, "n", 0), _keys(stream_ids)
    if ids.size == 1:
        return RngStream(seed, ids[0]).permutation(n)[None]
    j, accepted = _swap_targets(_lane_raw(seed, ids, max(n - 1, 0)))
    # one row per position, one column per lane: each swap moves two rows' elements
    perms = np.repeat(np.arange(n)[:, None], ids.size, axis=1)
    lanes = np.arange(ids.size)
    for i, ji in zip(range(n - 1, 0, -1), j):
        held = perms[i].copy()
        perms[i] = perms[ji, lanes]
        perms[ji, lanes] = held
    for lane in np.flatnonzero(~accepted):
        perms[:, lane] = RngStream(seed, ids[lane]).permutation(n)
    return perms.T


# Jump-ahead. The state recurrence is a linear map T over GF(2)^256, so
# T^(2^k) is a 256 x 256 bit matrix, kept as the images of the 256 unit
# states: (256, 4) uint64, 8 KB. A block of 2^30 draws (8 GB) needs 26 of
# them, 208 KB.
_SHORTEST = 4  # log2 of the shortest lane
_LANE_MIN = 768  # raw draws; below it the scalar loop is faster


def _state_bits(states: np.ndarray) -> np.ndarray:
    """(h, 4) uint64 states -> (h, 256) float32 0/1, bit b of word w in column 64*w + b."""
    octets = np.ascontiguousarray(states, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, bitorder="little").astype(np.float32)


def _jump_apply(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The linear map ``table`` applied to each row of (h, 4) states.

    One float32 product counts, per output bit, the set input bits whose
    image sets it (at most 256, so exact); its parity is the GF(2) sum.
    """
    count = (_state_bits(states) @ _state_bits(table)).astype(np.int32)
    bits = (count & 1).astype(np.uint8)
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)


@lru_cache(maxsize=None)
def _jump_table(k: int) -> np.ndarray:
    """T^(2^k), k >= _SHORTEST, as the images of the 256 unit states (read-only)."""
    if k == _SHORTEST:
        # the 256 unit states stepped 2^_SHORTEST times in lockstep
        unit = np.zeros((4, 256), dtype=np.uint64)
        b = np.arange(256)
        unit[b // 64, b] = np.left_shift(np.uint64(1), (b % 64).astype(np.uint64))
        table = np.stack(_xoshiro_fill(list(unit), np.empty((1 << k, 256), dtype=np.uint64)), axis=1)
    else:
        half = _jump_table(k - 1)
        table = _jump_apply(half, half)
    table.flags.writeable = False
    return table


def _lane_block(s: list, n: int) -> tuple[np.ndarray, list]:
    """The next n outputs of state ``s`` and the state after them, by lanes.

    Lane q covers steps q*L .. q*L + L-1 for L = 2^a about sqrt(n)/4. Its
    start state is T^(q*L) s, from log2(lanes) doublings: the first 2^i
    lanes, jumped by T^(L*2^i), give the next 2^i. The lanes then advance
    in lockstep; the last one stops at step n, where the stream's state is.
    """
    a = max(_SHORTEST, (n.bit_length() - 4) // 2)
    steps = 1 << a
    lanes = -(-n // steps)
    starts = np.empty((lanes, 4), dtype=np.uint64)
    starts[0] = s
    done, k = 1, a
    while done < lanes:
        c = min(done, lanes - done)
        starts[done : done + c] = _jump_apply(_jump_table(k), starts[:c])
        done += c
        k += 1
    raw = np.empty((steps, lanes), dtype=np.uint64)
    last = n - (lanes - 1) * steps
    state = _xoshiro_fill(list(starts.T.copy()), raw[:last])
    end = [int(w[-1]) for w in state]
    _xoshiro_fill([w[:-1] for w in state], raw[last:, :-1])
    return raw.T.reshape(-1)[:n], end


class RngStream:
    """xoshiro256++ stream identified by (seed, stream_id).

    ``position`` counts raw 64-bit draws, so a stream serialized as
    (seed, stream_id, position) resumes the identical sequence.
    """

    __slots__ = ("seed", "stream_id", "position", "_s")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _key(seed, "seed")
        self.stream_id = _key(stream_id, "stream id")
        self.position = 0
        self._s = _seed_state(self.seed, self.stream_id)

    def next_u64(self) -> int:
        out = [0]
        self._s = _xoshiro_fill(self._s, out)
        self.position += 1
        return out[0]

    def _raw_block(self, n: int) -> np.ndarray:
        """n raw 64-bit outputs as uint64: the scalar loop, or jump-ahead lanes from _LANE_MIN on."""
        if n < _LANE_MIN:
            out = np.empty(n, dtype=np.uint64)
            self._s = _xoshiro_fill(self._s, out)
        else:
            out, self._s = _lane_block(self._s, n)
        self.position += n
        return out

    def uniform(self, n: int | None = None):
        """Uniform doubles in [0, 1) using the top 53 bits per draw."""
        if n is None:
            return (self.next_u64() >> 11) * 2.0**-53
        n = _as_int(n, "n", 0)
        return _unit(self._raw_block(n))

    def randint_below(self, bound: int) -> int:
        """Unbiased integer in [0, bound), 0 < bound <= 2^64, via rejection sampling."""
        bound = _as_int(bound, "bound", 1)
        if bound > 1 << 64:
            raise DomainError("bound must be at most 2**64")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n): swap a[i], a[j<=i] for i = n-1..1, j = randint_below(i + 1).

        The n-1 draws come as one block; if any falls at or above its
        rejection limit, the stream rewinds and draws them one at a time.
        """
        n = _as_int(n, "n", 0)
        s, position = self._s, self.position
        j, accepted = _swap_targets(self._raw_block(max(n - 1, 0)))
        if accepted:
            j = j.tolist()
        else:
            self._s, self.position = s, position
            j = [self.randint_below(i + 1) for i in range(n - 1, 0, -1)]
        a = list(range(n))
        for i, ji in zip(range(n - 1, 0, -1), j):
            a[i], a[ji] = a[ji], a[i]
        return np.array(a, dtype=np.int_)

    def state(self) -> tuple[int, int, int]:
        return (self.seed, self.stream_id, self.position)

    @classmethod
    def restore(cls, seed: int, stream_id: int, position: int) -> "RngStream":
        """Rebuild a stream at ``position`` raw draws: scalar steps for the low
        _SHORTEST bits, then one jump-table product T^(2^k) per higher set bit k."""
        position = _as_int(position, "position", 0)
        rng = cls(seed, stream_id)
        rng._s = _xoshiro_fill(rng._s, [0] * (position % (1 << _SHORTEST)))
        state = np.array([rng._s], dtype=np.uint64)
        for k in range(_SHORTEST, position.bit_length()):
            if position >> k & 1:
                state = _jump_apply(_jump_table(k), state)
        rng._s, rng.position = state[0].tolist(), position
        return rng

    def split(self, *parts: int) -> "RngStream":
        """Child stream keyed off this stream's id plus extra parts."""
        return RngStream(self.seed, derive_stream_id(self.stream_id, *parts))


def gaussian(rng: RngStream, n: int, std: float) -> np.ndarray:
    """n i.i.d. N(0, std^2) samples: row 0 of ``gaussian_rows``, the one carrier
    of the draw layout (2*ceil(n/2) raw draws, u1 from the first half)."""
    return gaussian_rows(rng, 1, n, std)[0]


def gaussian_rows(rng: RngStream, rows: int, n: int, std: float) -> np.ndarray:
    """(rows, n) i.i.d. N(0, std^2) samples via Box-Muller on the deterministic stream.

    The one carrier of the draw layout: each row takes the next 2*ceil(n/2)
    raw draws, whatever n's parity, u1 from the first half and u2 from the
    second. So row k equals the k-th of ``rows`` consecutive
    gaussian(rng, n, std) calls, and all rows come from one raw block.
    """
    rows, n = _as_int(rows, "rows", 0), _as_int(n, "n", 0)
    if _as_real(std, "std") < 0:
        raise DomainError("std must be non-negative")
    pairs = (n + 1) // 2
    raw = rng._raw_block(rows * 2 * pairs).reshape(rows, 2, pairs)
    z = np.empty(2 * pairs, dtype=np.float64)
    out = np.empty((rows, n), dtype=np.float64)
    for k in range(rows):
        # u1 in (0, 1] to keep log finite (the sum is exact); u2 in [0, 1)
        r = np.sqrt(-2.0 * np.log(_unit(raw[k, 0]) + 2.0**-53))
        theta = 2.0 * math.pi * _unit(raw[k, 1])
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        out[k] = std * z[:n]
    return out


def uniform_in_ball(rng: RngStream, center: Sequence[float] | np.ndarray, radius: float) -> np.ndarray:
    """Uniform sample from the closed n-ball around ``center``.

    Gaussian direction normalized to the sphere, then scaled by
    radius * U^(1/n) so the radial CDF is r^n.
    """
    if _as_real(radius, "radius") < 0:
        raise DomainError("radius must be non-negative")
    center = _as_vector(center, "center")
    n = center.size
    if n == 0:
        raise DomainError("center must have at least one coordinate")
    if radius == 0:
        return center.copy()
    while True:
        direction = gaussian(rng, n, 1.0)
        norm = math.sqrt(float(np.dot(direction, direction)))
        if norm > 0:
            break
    r = radius * rng.uniform() ** (1.0 / n)
    return center + direction * (r / norm)
