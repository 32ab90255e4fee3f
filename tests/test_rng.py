import numpy as np
import pytest

from basinscope.errors import DomainError
from basinscope.rng import RngStream, derive_stream_id, gaussian, lane_uniforms, mix64, uniform_in_ball


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


def test_restore_negative_position_rejected():
    with pytest.raises(DomainError):
        RngStream.restore(1, 2, -5)


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
        head = [rng.uniform() for _ in range(4)]
        tail = rng.uniform(256)
        assert np.array_equal(lanes[i], np.concatenate([head, tail]))


def test_lane_uniforms_negative_length_rejected():
    with pytest.raises(DomainError):
        lane_uniforms(1, [1, 2], -1)


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
