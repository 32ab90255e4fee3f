import numpy as np
import pytest

from basinscope.basin import BallSet, check_basin, fit_basin
from basinscope.criticality import CriticalityConfig
from basinscope.dataops import ShuffleSpec, relative_accuracy_drop
from basinscope.errors import DomainError, SizeError
from basinscope.landscape import barrier_curve_from_fn, interpolate, lambda_grid
from basinscope.model import TINY4, ArchDescriptor, ParamVector, sgd_step
from basinscope.rng import (
    RngStream,
    derive_stream_id,
    gaussian,
    gaussian_rows,
    lane_permutations,
    lane_uniforms,
    uniform_in_ball,
)
from basinscope.similarity import mistake_ratios
from basinscope.spectrum import conv_singular_values, dense_singular_values
from basinscope.trainer import DataSpec, TrainConfig, config_hash


def jacobi_eigenvalues(s):
    """Two-sided Jacobi eigensolver for a symmetric matrix (SVD oracle)."""
    a = np.array(s, dtype=np.float64)
    n = a.shape[0]
    for _ in range(100):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-14:
                    continue
                off = max(off, abs(a[p, q]))
                phi = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, t = np.cos(phi), np.sin(phi)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = t
                rot[q, p] = -t
                a = rot.T @ a @ rot
        if off < 1e-14:
            break
    return np.sort(np.diag(a))[::-1]


def rand_matrix(shape, seed):
    rng = RngStream(seed, 100)
    return gaussian(rng, int(np.prod(shape)), 1.0).reshape(shape)


class TestSvdValues:
    def test_identity(self):
        assert np.allclose(dense_singular_values(np.eye(3)), [1, 1, 1])

    def test_rect_diag(self):
        m = np.zeros((2, 3))
        m[0, 0] = 3.0
        m[1, 1] = 2.0
        assert np.allclose(dense_singular_values(m), [3, 2])

    def test_matches_jacobi_eigensolver_oracle(self):
        m = rand_matrix((5, 4), 3)
        want = np.sqrt(np.clip(jacobi_eigenvalues(m.T @ m), 0, None))
        got = dense_singular_values(m)
        assert np.allclose(got, want, atol=1e-8)

    def test_energy_identity(self):
        m = rand_matrix((7, 5), 4)
        values = dense_singular_values(m)
        assert abs(np.sum(values**2) - np.linalg.norm(m) ** 2) <= 1e-4 * np.linalg.norm(m) ** 2

    def test_transpose_invariance(self):
        m = rand_matrix((6, 3), 5)
        assert np.allclose(dense_singular_values(m), dense_singular_values(m.T), atol=1e-6)

    def test_complex_matrix(self):
        re = rand_matrix((4, 3), 6)
        im = rand_matrix((4, 3), 7)
        m = re + 1j * im
        got = dense_singular_values(m)
        want = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(got, want, atol=1e-8)
        assert got.dtype == np.float64

    def test_zero_matrix(self):
        assert np.allclose(dense_singular_values(np.zeros((3, 2))), [0, 0])

    def test_non_finite_rejected(self):
        m = np.ones((2, 2))
        m[0, 1] = np.nan
        with pytest.raises(DomainError):
            dense_singular_values(m)

    def test_vector_rejected(self):
        with pytest.raises(SizeError, match="expects a matrix"):
            dense_singular_values(np.ones(3))

    def test_descending_order(self):
        m = rand_matrix((8, 8), 8)
        values = dense_singular_values(m)
        assert np.all(np.diff(values) <= 1e-12)


def config(**kw):
    return TrainConfig(TINY4, DataSpec(("source",)), 3, **kw)


def arch(**kw):
    fields = dict(input_shape=(16, 16, 3), conv_blocks=((8, 3, 1),), fc_widths=(32,), num_classes=10)
    return ArchDescriptor(**{**fields, **kw})


# Count arguments that are not integers, each as a call that must raise DomainError.
NON_INTEGER_COUNTS = {
    "randint_below(2.5)": lambda: RngStream(1).randint_below(2.5),
    "permutation(True)": lambda: RngStream(1).permutation(True),
    "uniform(2.5)": lambda: RngStream(1).uniform(2.5),
    "restore(position=2.5)": lambda: RngStream.restore(1, 0, 2.5),
    "gaussian(n=2.5)": lambda: gaussian(RngStream(1), 2.5, 1.0),
    "gaussian_rows(rows=1.5)": lambda: gaussian_rows(RngStream(1), 1.5, 4, 1.0),
    "lane_uniforms(n=2.5)": lambda: lane_uniforms(1, [1, 2], 2.5),
    "lane_uniforms(one lane, n=2.5)": lambda: lane_uniforms(1, [1], 2.5),
    "lane_permutations(n=True)": lambda: lane_permutations(1, [1, 2], True),
    "lambda_grid(points=2.5)": lambda: lambda_grid(points=2.5),
    "conv_singular_values(input_size=8.0)": lambda: conv_singular_values(np.ones((3, 3, 1, 1)), 8.0),
    "mistake_ratios(g1=1.5)": lambda: mistake_ratios(1.5, 2, 3),
    "CriticalityConfig(noise_samples=True)": lambda: CriticalityConfig("conv1", 0.1, noise_samples=True),
    "CriticalityConfig(noise_samples=2.5)": lambda: CriticalityConfig("conv1", 0.1, noise_samples=2.5),
    "check_basin(samples=100.5)": lambda: check_basin(BallSet(np.zeros(2), 1.0), lambda p: 0.0, 0.1, 0.1, 100.5, RngStream(1)),
    "fit_basin(samples=100.5)": lambda: fit_basin(np.zeros(2), np.ones(2), lambda p: 0.0, 0.1, RngStream(1), samples=100.5),
    "TrainConfig(lr schedule epoch 0.9)": lambda: config(lr_schedule=((0.9, 0.05),)),
    "TrainConfig(lr schedule epoch 1.5)": lambda: config(lr_schedule=((0, 0.05), (1.5, 0.01))),
    "TrainConfig(lr schedule epoch True)": lambda: config(lr_schedule=((0, 0.05), (True, 0.01))),
    "TrainConfig(checkpoint_epochs=(1.5,))": lambda: config(checkpoint_epochs=(1.5,)),
    "TrainConfig(checkpoint_epochs=(True,))": lambda: config(checkpoint_epochs=(True,)),
    "ArchDescriptor(input size 16.0)": lambda: arch(input_shape=(16.0, 16, 3)),
    "ArchDescriptor(conv channels 8.5)": lambda: arch(conv_blocks=((8.5, 3, 1),)),
    "ArchDescriptor(kernel True)": lambda: arch(conv_blocks=((8, True, 1),)),
    "ArchDescriptor(fc width '32')": lambda: arch(fc_widths=("32",)),
    "ArchDescriptor(num_classes=2.5)": lambda: arch(num_classes=2.5),
}


# Keys (seeds and stream ids) that are not integers,
# each as a call that must raise DomainError; the count test runs them too.
NON_INTEGER_KEYS = {
    "RngStream(seed=2.5)": lambda: RngStream(2.5),
    "RngStream(seed=True)": lambda: RngStream(True),
    "lane_uniforms(ids [1.5, 2.5])": lambda: lane_uniforms(3, [1.5, 2.5], 4),
    "lane_uniforms(float id array)": lambda: lane_uniforms(3, np.array([1.5, 2.5]), 4),
    "lane_permutations(seed=2.0)": lambda: lane_permutations(2.0, [1, 2], 3),
}


@pytest.mark.parametrize(
    "call", [*NON_INTEGER_COUNTS.values(), *NON_INTEGER_KEYS.values()], ids=[*NON_INTEGER_COUNTS, *NON_INTEGER_KEYS]
)
def test_non_integer_count_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.filterwarnings("error")
def test_numpy_integer_counts_act_as_ints():
    assert type(CriticalityConfig("conv1", 0.1, noise_samples=np.int64(3)).noise_samples) is int
    assert RngStream(1).randint_below(np.uint8(7)) == RngStream(1).randint_below(7)
    assert np.array_equal(RngStream(1).permutation(np.int32(9)), RngStream(1).permutation(9))
    assert np.array_equal(gaussian_rows(RngStream(1), np.int64(2), 3, 1.0), gaussian_rows(RngStream(1), 2, 3, 1.0))
    kernel = np.ones((3, 3, 1, 1))
    assert np.array_equal(conv_singular_values(kernel, np.int16(8)), conv_singular_values(kernel, 8))
    assert arch(input_shape=np.array([16, 16, 3]), num_classes=np.int64(10)) == arch()
    # keys: numpy integers and negative ints equal their Python-int forms mod 2^64
    assert RngStream(1).split(np.int64(2)).state() == RngStream(1).split(2).state()
    assert derive_stream_id(np.int64(5)) == derive_stream_id(np.uint64(5)) == derive_stream_id(5)
    assert derive_stream_id(np.int32(-1)) == derive_stream_id(-1) == derive_stream_id(2**64 - 1)
    assert np.array_equal(lane_uniforms(1, [-1, 2], 4)[0], RngStream(1, 2**64 - 1).uniform(4))
    assert np.array_equal(lane_uniforms(1, [np.int64(-1), np.uint8(2)], 4), lane_uniforms(1, [2**64 - 1, 2], 4))


# Flags that are not bools, each as a call that must raise DomainError.
NON_BOOL_FLAGS = {
    "ShuffleSpec(shared_permutation='False')": lambda: ShuffleSpec(4, 0, "False"),
    "ShuffleSpec(shared_permutation=1)": lambda: ShuffleSpec(4, 0, 1),
    "DataSpec(shared_permutation='no')": lambda: DataSpec(("source",), shuffle_block=4, shared_permutation="no"),
}


@pytest.mark.parametrize("call", NON_BOOL_FLAGS.values(), ids=NON_BOOL_FLAGS.keys())
def test_non_bool_flag_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_numpy_bool_flags_act_as_bools():
    assert ShuffleSpec(4, 0, np.True_).shared_permutation is True
    spec = DataSpec(("source",), shuffle_block=4, shared_permutation=np.False_)
    assert spec.shared_permutation is False
    assert config_hash(TrainConfig(TINY4, spec, 3)) == config_hash(TrainConfig(TINY4, DataSpec(("source",), shuffle_block=4), 3))


def _sgd(**kw):
    params = ParamVector.zeros(TINY4)
    args = dict(lr=0.05, momentum_buf=None, momentum=0.9, weight_decay=1e-4)
    return sgd_step(params, params, **{**args, **kw})


_BALL = BallSet(np.zeros(2), 1.0)
_FLAT = {"train_loss": 0.0, "train_acc": 1.0, "test_loss": 0.0, "test_acc": 1.0}

# Real arguments that are not finite reals, and grids and vectors that are
# not 1-D and finite, each as (error, call): the call must raise the error.
NON_FINITE_REALS = {
    "TrainConfig(lr nan)": (DomainError, lambda: config(lr_schedule=((0, float("nan")),))),
    "TrainConfig(lr inf)": (DomainError, lambda: config(lr_schedule=((0, 0.05), (1, float("inf"))))),
    "TrainConfig(lr '0.05')": (DomainError, lambda: config(lr_schedule=((0, "0.05"),))),
    "TrainConfig(empty lr schedule)": (DomainError, lambda: config(lr_schedule=())),
    "TrainConfig(momentum nan)": (DomainError, lambda: config(momentum=float("nan"))),
    "TrainConfig(weight_decay True)": (DomainError, lambda: config(weight_decay=True)),
    "TrainConfig(weight_decay nan)": (DomainError, lambda: config(weight_decay=float("nan"))),
    "TrainConfig(clip_grad_norm nan)": (DomainError, lambda: config(clip_grad_norm=float("nan"))),
    "TrainConfig(clip_grad_norm inf)": (DomainError, lambda: config(clip_grad_norm=float("inf"))),
    "sgd_step(lr nan)": (DomainError, lambda: _sgd(lr=float("nan"))),
    "sgd_step(momentum nan)": (DomainError, lambda: _sgd(momentum=float("nan"))),
    "sgd_step(weight_decay nan)": (DomainError, lambda: _sgd(weight_decay=float("nan"))),
    "sgd_step(lr '0.05')": (DomainError, lambda: _sgd(lr="0.05")),
    "CriticalityConfig(epsilon nan)": (DomainError, lambda: CriticalityConfig("conv1", float("nan"))),
    "CriticalityConfig(epsilon inf)": (DomainError, lambda: CriticalityConfig("conv1", float("inf"))),
    "CriticalityConfig(alpha grid nan)": (DomainError, lambda: CriticalityConfig("conv1", 0.1, alpha_grid=[0.0, float("nan")])),
    "CriticalityConfig(sigma grid inf)": (DomainError, lambda: CriticalityConfig("conv1", 0.1, sigma_grid=[0.1, float("inf")])),
    "CriticalityConfig(alpha grid 2-D)": (SizeError, lambda: CriticalityConfig("conv1", 0.1, alpha_grid=[[0.0, 0.5], [0.6, 1.0]])),
    "CriticalityConfig(sigma grid 2-D)": (SizeError, lambda: CriticalityConfig("conv1", 0.1, sigma_grid=[[0.1], [0.2]])),
    "interpolate(lam nan)": (DomainError, lambda: interpolate(ParamVector.zeros(TINY4), ParamVector.zeros(TINY4), float("nan"))),
    "lambda_grid(0, nan)": (DomainError, lambda: lambda_grid(0.0, float("nan"))),
    "lambda_grid(-inf, 1)": (DomainError, lambda: lambda_grid(float("-inf"), 1.0)),
    "lambda_grid('0', 1)": (DomainError, lambda: lambda_grid("0", 1.0)),
    "barrier_curve_from_fn(lambdas nan)": (DomainError, lambda: barrier_curve_from_fn([0.0, float("nan")], float, {"a": lambda p: _FLAT})),
    "barrier_curve_from_fn(lambdas 2-D)": (SizeError, lambda: barrier_curve_from_fn([[0.0, 1.0]], float, {"a": lambda p: _FLAT})),
    "check_basin(epsilon nan)": (DomainError, lambda: check_basin(_BALL, lambda p: 0.0, float("nan"), 0.1, 100, RngStream(1))),
    "check_basin(delta inf)": (DomainError, lambda: check_basin(_BALL, lambda p: 0.0, 0.1, float("inf"), 100, RngStream(1))),
    "fit_basin(epsilon nan)": (DomainError, lambda: fit_basin(np.zeros(2), np.ones(2), lambda p: 0.0, float("nan"), RngStream(1))),
    "relative_accuracy_drop(nan, 0.5)": (DomainError, lambda: relative_accuracy_drop(float("nan"), 0.5)),
    "relative_accuracy_drop(0.9, nan)": (DomainError, lambda: relative_accuracy_drop(0.9, float("nan"))),
    "gaussian(std nan)": (DomainError, lambda: gaussian(RngStream(1), 4, float("nan"))),
    "gaussian_rows(std inf)": (DomainError, lambda: gaussian_rows(RngStream(1), 2, 4, float("inf"))),
    "uniform_in_ball(radius nan)": (DomainError, lambda: uniform_in_ball(RngStream(1), np.zeros(2), float("nan"))),
    "BallSet(radius inf)": (DomainError, lambda: BallSet(np.zeros(2), float("inf"))),
    "BallSet(radius '1')": (DomainError, lambda: BallSet(np.zeros(2), "1")),
    "BallSet(center nan)": (DomainError, lambda: BallSet([0.0, float("nan")], 1.0)),
    "BallSet(center 2-D)": (SizeError, lambda: BallSet(np.zeros((2, 2)), 1.0)),
    "uniform_in_ball(center inf)": (DomainError, lambda: uniform_in_ball(RngStream(1), [float("inf"), 0.0], 1.0)),
    "uniform_in_ball(center 2-D)": (SizeError, lambda: uniform_in_ball(RngStream(1), np.zeros((2, 2)), 1.0)),
    "fit_basin(endpoints 2-D)": (SizeError, lambda: fit_basin(np.zeros((1, 2)), np.ones((1, 2)), lambda p: 0.0, 0.1, RngStream(1))),
}


@pytest.mark.parametrize("error,call", NON_FINITE_REALS.values(), ids=NON_FINITE_REALS.keys())
def test_non_finite_real_raises(error, call):
    with pytest.raises(error):
        call()


def test_numpy_reals_act_as_floats():
    cfg = config(lr_schedule=((0, np.float64(0.05)),), momentum=np.float32(0.5), weight_decay=0, clip_grad_norm=np.int64(2))
    assert cfg.lr_schedule == ((0, 0.05),) and cfg.momentum == 0.5 and cfg.clip_grad_norm == 2.0
    assert all(type(v) is float for v in (cfg.lr_schedule[0][1], cfg.momentum, cfg.weight_decay, cfg.clip_grad_norm))
    assert np.array_equal(lambda_grid(np.float32(0.5), 1, 3), [0.5, 0.75, 1.0])


def test_python_float_config_hash_pinned():
    """Normalising the reals leaves a Python-float config's JSON, and so its hash, as it was."""
    explicit = config(lr_schedule=((0, 0.05), (30, 0.005)), momentum=0.9, weight_decay=1e-4, clip_grad_norm=2.0)
    want = "ffc27f5885ca862ffde4308495df698b4ffd48a113395f80801425250e2be992"
    assert config_hash(explicit) == config_hash(config()) == want
    numpy_reals = config(lr_schedule=((0, np.float64(0.05)), (30, 0.005)), momentum=np.float64(0.9))
    assert config_hash(numpy_reals) == want


# Architectures that cannot be built, each as (error, fields): the descriptor
# must raise the error when it is built, not at first use.
BAD_ARCHITECTURES = {
    "stride 0": (DomainError, dict(conv_blocks=((8, 3, 0),))),
    "stride -1": (DomainError, dict(conv_blocks=((8, 3, -1),))),
    "stride 3 on 16": (SizeError, dict(conv_blocks=((8, 3, 3),))),
    "kernel -1": (DomainError, dict(conv_blocks=((8, -1, 1),))),
    "kernel 17 on 16": (SizeError, dict(conv_blocks=((8, 17, 1),))),
    "zero channels": (DomainError, dict(conv_blocks=((0, 3, 1),))),
    "zero input channels": (DomainError, dict(input_shape=(16, 16, 0))),
    "fc width 0": (DomainError, dict(fc_widths=(0,))),
    "num_classes=2.5": (DomainError, dict(num_classes=2.5)),
    "num_classes=1": (SizeError, dict(num_classes=1)),
    "two-element input_shape": (SizeError, dict(input_shape=(16, 16))),
    "two-element conv block": (SizeError, dict(conv_blocks=((8, 3),))),
    "no conv blocks": (SizeError, dict(conv_blocks=())),
    "no fc layers": (SizeError, dict(fc_widths=())),
}


@pytest.mark.parametrize("error,fields", BAD_ARCHITECTURES.values(), ids=BAD_ARCHITECTURES.keys())
def test_bad_architecture_raises_when_built(error, fields):
    with pytest.raises(error):
        arch(**fields)
