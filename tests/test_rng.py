import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basinscope.errors import DomainError
from basinscope import rng as rng_module
from basinscope.rng import (
    _LANE_MIN,
    _MASK64,
    RngStream,
    _jump_apply,
    _jump_table,
    _swap_targets,
    _xoshiro_fill,
    derive_stream_id,
    gaussian,
    gaussian_rows,
    lane_permutations,
    lane_uniforms,
    mix64,
    uniform_in_ball,
)


def test_same_seed_same_sequence():
    a = RngStream(123, 7)
    b = RngStream(123, 7)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_distinct_streams_differ():
    a = RngStream(123, 0)
    b = RngStream(123, 1)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_block_matches_scalar_draws():
    a = RngStream(9, 2)
    b = RngStream(9, 2)
    block = a._raw_block(257)
    singles = np.array([b.next_u64() for _ in range(257)], dtype=np.uint64)
    assert np.array_equal(block, singles)


def test_serialize_restore_resumes_sequence():
    a = RngStream(42, 5)
    gaussian(a, 31, 1.0)
    a.uniform(10)
    state = a.state()
    tail = [a.next_u64() for _ in range(50)]
    b = RngStream.restore(*state)
    assert [b.next_u64() for _ in range(50)] == tail


def test_numpy_integer_seed_and_id_match_python_ints():
    want = RngStream(3, 2**64 - 1).uniform(5)
    for seed, sid in [(np.int64(3), np.uint64(2**64 - 1)), (np.uint64(3), -1), (np.int32(3), np.int64(-1))]:
        assert np.array_equal(RngStream(seed, sid).uniform(5), want)
    assert np.array_equal(lane_uniforms(np.int64(3), [2**64 - 1], 5)[0], want)


def test_one_uniform_is_the_top_53_bits_of_one_draw():
    rng, twin = RngStream(10, 3), RngStream(10, 3)
    for _ in range(200):
        u = rng.uniform(1)
        assert u.shape == (1,) and u[0] == (twin.next_u64() >> 11) * 2.0**-53
    assert rng.state() == twin.state()


def test_restore_negative_position_rejected():
    with pytest.raises(DomainError):
        RngStream.restore(1, 2, -5)


@pytest.mark.parametrize("position", [0, 1, 15, 16, 17, 767, 768, 12345, 100003, 2**20])
def test_restore_jump_matches_stepping(position):
    for seed, sid in [(1, 2), (2**64 - 1, 7)]:
        stepped = RngStream(seed, sid)
        stepped._raw_block(position)
        restored = RngStream.restore(seed, sid, position)
        assert restored.state() == stepped.state() and restored._s == stepped._s
        assert [restored.next_u64() for _ in range(5)] == [stepped.next_u64() for _ in range(5)]


def test_restore_zero_position_is_fresh_stream():
    assert RngStream.restore(1, 2, 0).next_u64() == RngStream(1, 2).next_u64()


LANE_IDS = [0, 1, 2, 2**63, 2**64 - 1] + [derive_stream_id(99, k) for k in range(60)]


@pytest.mark.parametrize("n", [0, 1, 4, 17, 260])
def test_each_lane_equals_scalar_stream(n):
    for seed in (0, 3, 2**64 - 5):
        lanes = lane_uniforms(seed, np.array(LANE_IDS, dtype=np.uint64), n)
        assert lanes.shape == (len(LANE_IDS), n)
        for i, sid in enumerate(LANE_IDS):
            assert np.array_equal(lanes[i], RngStream(seed, sid).uniform(n)), (seed, sid)


def test_consecutive_scalar_draws_equal_one_lane_draw():
    lanes = lane_uniforms(7, LANE_IDS, 4 + 256)
    for i, sid in enumerate(LANE_IDS):
        rng = RngStream(7, sid)
        head = [rng.uniform(1)[0] for _ in range(4)]
        tail = rng.uniform(256)
        assert np.array_equal(lanes[i], np.concatenate([head, tail]))


@pytest.mark.parametrize("lanes", [lane_uniforms, lane_permutations])
def test_lane_draws_negative_length_rejected(lanes):
    with pytest.raises(DomainError):
        lanes(1, [1, 2], -1)


def test_derive_stream_id_on_arrays_matches_ints():
    # the fold's intermediate can exceed 64 bits for some prefixes
    index = np.arange(300, dtype=np.uint64) + np.uint64(2**32)
    for prefix in [(0x44415441, d) for d in range(5)] + [(2**64 - 1,)]:
        got = derive_stream_id(*prefix, index)
        want = [derive_stream_id(*prefix, int(i)) for i in index]
        assert got.dtype == np.uint64
        assert got.tolist() == want


def test_gaussian_zero_std():
    rng = RngStream(1)
    assert np.array_equal(gaussian(rng, 5, 0.0), np.zeros(5))


def test_gaussian_negative_std_rejected():
    with pytest.raises(DomainError):
        gaussian(RngStream(1), 4, -1.0)


def test_gaussian_moments():
    rng = RngStream(2024, 3)
    z = gaussian(rng, 100_000, 1.0)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_gaussian_deterministic():
    x = gaussian(RngStream(7, 1), 64, 2.5)
    y = gaussian(RngStream(7, 1), 64, 2.5)
    assert np.array_equal(x, y)


def test_uniform_in_ball_zero_radius():
    rng = RngStream(3)
    center = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(uniform_in_ball(rng, center, 0.0), center)


def test_uniform_in_ball_negative_radius_rejected():
    with pytest.raises(DomainError):
        uniform_in_ball(RngStream(3), np.zeros(2), -0.1)


def test_uniform_in_ball_support_and_area_ratio():
    rng = RngStream(11, 4)
    n_samples = 100_000
    norms = np.empty(n_samples)
    for k in range(n_samples):
        x = uniform_in_ball(rng, np.zeros(2), 1.0)
        norms[k] = np.hypot(x[0], x[1])
    assert np.all(norms <= 1.0 + 1e-12)
    # P(|x| <= 0.5) = area ratio 0.25 in 2-D
    frac = float(np.mean(norms <= 0.5))
    assert abs(frac - 0.25) < 0.01


def test_uniform_in_ball_radial_cdf_ks():
    # empirical radial CDF of r should match r^n
    n_dim = 5
    rng = RngStream(17, 9)
    n_samples = 100_000
    norms = np.empty(n_samples)
    for k in range(n_samples):
        x = uniform_in_ball(rng, np.zeros(n_dim), 1.0)
        norms[k] = np.linalg.norm(x)
    norms.sort()
    ecdf_hi = np.arange(1, n_samples + 1) / n_samples
    ecdf_lo = np.arange(0, n_samples) / n_samples
    model = norms**n_dim
    ks = max(np.max(np.abs(ecdf_hi - model)), np.max(np.abs(ecdf_lo - model)))
    assert ks < 0.01


def test_permutation_is_permutation():
    rng = RngStream(5)
    p = rng.permutation(40)
    assert sorted(p.tolist()) == list(range(40))


def test_permutation_replay_by_hand():
    # replay Fisher-Yates with the documented convention on a twin stream
    n = 12
    p = RngStream(77, 6).permutation(n)
    twin = RngStream(77, 6)
    a = list(range(n))
    for i in range(n - 1, 0, -1):
        j = twin.randint_below(i + 1)
        a[i], a[j] = a[j], a[i]
    assert p.tolist() == a


def test_randint_below_range_and_determinism():
    rng = RngStream(8)
    vals = [rng.randint_below(10) for _ in range(1000)]
    assert min(vals) >= 0 and max(vals) <= 9
    assert len(set(vals)) == 10


def test_derive_stream_id_order_sensitive():
    assert derive_stream_id(1, 2) != derive_stream_id(2, 1)
    assert derive_stream_id(1, 2) == derive_stream_id(1, 2)
    assert mix64(0) == 0


@pytest.mark.parametrize("n", [-1, -4])
def test_gaussian_negative_count_rejected(n):
    rng = RngStream(1)
    with pytest.raises(DomainError):
        gaussian(rng, n, 1.0)
    assert rng.position == 0


def test_permutation_negative_length_rejected():
    rng = RngStream(5)
    with pytest.raises(DomainError):
        rng.permutation(-1)
    assert rng.position == 0


# ---- jump-ahead blocks, checked against the Python-int recurrence


def _oracle(seed, sid, skip, n):
    """Draws skip .. skip+n-1 of a stream and the state after them, on Python ints."""
    out = [0] * (skip + n)
    state = _xoshiro_fill(RngStream(seed, sid)._s, out)
    return np.array(out[skip:], dtype=np.uint64), state


# around the crossover, and 2^k +- 1: a multiple of every lane length +- 1
BLOCK_LENGTHS = [_LANE_MIN - 1, _LANE_MIN, _LANE_MIN + 1, 1023, 1024, 1025, 4095, 4097, 12266, 16383, 16384, 16385]


@pytest.mark.parametrize("n", BLOCK_LENGTHS)
@pytest.mark.parametrize("skip", [0, 1, 77])
def test_raw_block_equals_python_int_recurrence(n, skip):
    rng = RngStream(2**64 - 3, 41)
    for _ in range(skip):
        rng.next_u64()
    got = rng._raw_block(n)
    want, state = _oracle(2**64 - 3, 41, skip, n)
    assert got.dtype == np.uint64 and np.array_equal(got, want)
    assert rng._s == state and rng.position == skip + n


def test_numpy_integer_block_length():
    assert np.array_equal(RngStream(2, 2).uniform(np.int64(_LANE_MIN + 5)), RngStream(2, 2).uniform(_LANE_MIN + 5))


def test_consecutive_lane_blocks_continue_the_stream():
    rng = RngStream(6, 6)
    got = np.concatenate([rng._raw_block(3000), rng._raw_block(5), rng._raw_block(2 * _LANE_MIN)])
    want, state = _oracle(6, 6, 0, len(got))
    assert np.array_equal(got, want) and rng._s == state


@pytest.mark.parametrize("k", [4, 5, 9])
def test_jump_table_equals_stepping(k):
    start = RngStream(12, 34)._s
    jumped = _jump_apply(_jump_table(k), np.array([start], dtype=np.uint64))
    assert jumped[0].tolist() == _xoshiro_fill(start, [0] * (1 << k))


def test_jump_tables_stay_small():
    RngStream(1, 1)._raw_block(1 << 20)
    assert _jump_table.cache_info().currsize * _jump_table(4).nbytes < 1 << 20


# ---- permutations


def _replayed_permutation(rng, n):
    a = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint_below(i + 1)
        a[i], a[j] = a[j], a[i]
    return a


@pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 768, _LANE_MIN + 2, 3000])
def test_permutation_equals_randint_below_loop(n):
    rng, twin = RngStream(31, n), RngStream(31, n)
    p = rng.permutation(n)
    assert p.dtype == np.arange(1).dtype
    assert p.tolist() == _replayed_permutation(twin, n)
    assert rng._s == twin._s and rng.position == twin.position


def test_swap_targets_reject_at_the_limit():
    # n = 6 draws bounds 6, 5, 4, 3, 2; 2^64 mod 6 = 4, so the limit is 2^64 - 4
    raw = np.zeros(5, dtype=np.uint64)
    raw[0] = 2**64 - 5
    assert _swap_targets(raw)[1]
    raw[0] = 2**64 - 4
    assert not _swap_targets(raw)[1]
    raw[:] = [0, 0, 2**64 - 1, 0, 2**64 - 1]  # bounds 4 and 2 never reject
    j, accepted = _swap_targets(raw)
    assert accepted and j.tolist() == [0, 0, 3, 0, 1]


def _injected():
    """A stream whose next output is 2^64 - 1, at or above every non-power-of-two limit."""
    rng = RngStream(0)
    rng._s = [0, 0x123456789, 0xABCDEF, _MASK64]
    return rng


def test_permutation_rejection_falls_back_to_scalar_draws():
    rng, twin = _injected(), _injected()
    assert twin.next_u64() == _MASK64
    twin = _injected()
    p = rng.permutation(6)
    assert p.tolist() == _replayed_permutation(twin, 6)
    assert rng._s == twin._s and rng.position == twin.position == 6


LANE_PERM_IDS = np.array([derive_stream_id(5, k) for k in range(40)], dtype=np.uint64)


@pytest.mark.parametrize("n", [0, 1, 2, 16, 64, 256, 768])
def test_lane_permutations_equal_stream_permutations(n):
    perms = lane_permutations(17, LANE_PERM_IDS, n)
    assert perms.shape == (len(LANE_PERM_IDS), n)
    for row, sid in zip(perms, LANE_PERM_IDS):
        assert np.array_equal(row, RngStream(17, int(sid)).permutation(n))
    assert lane_permutations(17, [], n).shape == (0, n)


@pytest.mark.parametrize("n", [0, 1, 260, _LANE_MIN - 1, _LANE_MIN, _LANE_MIN + 1])
def test_one_lane_equals_its_stream(n):
    """A lone stream id runs the lockstep as one column, and gives its
    RngStream's draws on either side of that stream's jump-ahead threshold."""
    for sid in (0, 2**64 - 1, int(LANE_PERM_IDS[0])):
        u = lane_uniforms(17, [sid], n)
        assert u.shape == (1, n) and np.array_equal(u[0], RngStream(17, sid).uniform(n))
        perm = lane_permutations(17, np.array([sid], dtype=np.uint64), n)
        assert perm.shape == (1, n) and np.array_equal(perm[0], RngStream(17, sid).permutation(n))


def test_lane_permutations_rejected_lane_is_redrawn(monkeypatch):
    lane_raw = rng_module._lane_raw

    def injected(seed, ids, n):
        raw = lane_raw(seed, ids, n)
        raw[0, 1] = _MASK64  # lane 1's first draw (bound 15) lies at its limit, 2^64 - 1
        return raw

    monkeypatch.setattr(rng_module, "_lane_raw", injected)
    perms = lane_permutations(17, LANE_PERM_IDS[:3], 15)
    for row, sid in zip(perms, LANE_PERM_IDS[:3]):
        assert np.array_equal(row, RngStream(17, int(sid)).permutation(15))


# ---- bounds and domains


def test_randint_below_full_range_and_beyond():
    rng, twin = RngStream(4, 4), RngStream(4, 4)
    assert rng.randint_below(2**64) == twin.next_u64()
    with pytest.raises(DomainError):
        rng.randint_below(2**64 + 1)
    assert rng.position == 1


@pytest.mark.parametrize("std", [float("nan"), float("inf"), -float("inf")])
def test_gaussian_non_finite_std_rejected(std):
    rng = RngStream(1)
    with pytest.raises(DomainError):
        gaussian(rng, 4, std)
    assert rng.position == 0


def test_uniform_negative_count_rejected():
    rng = RngStream(1)
    with pytest.raises(DomainError):
        rng.uniform(-1)
    assert rng.position == 0


@pytest.mark.parametrize("center, radius", [([], 1.0), ([], 0.0), ([0.0, 1.0], float("nan")), ([0.0], float("inf"))])
def test_uniform_in_ball_degenerate_inputs_rejected(center, radius):
    rng = RngStream(3)
    with pytest.raises(DomainError):
        uniform_in_ball(rng, center, radius)
    assert rng.position == 0


def test_derive_stream_id_on_signed_arrays_wraps_like_ints():
    values = [-(2**63), -5, -1, 0, 1, 2**31, 2**63 - 1]
    for dtype in (np.int64, np.int32):
        arr = np.array([v for v in values if np.iinfo(dtype).min <= v <= np.iinfo(dtype).max], dtype=dtype)
        got = derive_stream_id(0x53484646, arr)
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_stream_id(0x53484646, int(v)) for v in arr]


@pytest.mark.parametrize("rows, n", [(0, 5), (1, 0), (3, 7), (4, 400)])
def test_gaussian_rows_equal_consecutive_gaussians(rows, n):
    rng, twin = RngStream(8, 8), RngStream(8, 8)
    got = gaussian_rows(rng, rows, n, 0.3)
    assert got.shape == (rows, n)
    for row in got:
        assert np.array_equal(row, gaussian(twin, n, 0.3))
    assert rng._s == twin._s and rng.position == twin.position


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(-(2**63), 2**64 - 1), k=st.integers(-(2**63), 2**64 - 1), n=st.integers(0, 6))
def test_lane_row_equals_its_stream_for_every_integer_key(seed, k, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lane_uniforms(seed, [k, 0], n)[0]
        want = RngStream(seed, k).uniform(n)
    assert np.array_equal(got, want)
