import json
import math

import numpy as np
import pytest

from basinscope.basin import BallSet, check_basin, fit_basin
from basinscope.criticality import CriticalityConfig
from basinscope.dataops import DomainSpec, ShuffleSpec, domain_spec, generate, relative_accuracy_drop
from basinscope.errors import DomainError, SizeError
from basinscope.landscape import BarrierCurve, barrier_curve_from_fn, barrier_height, interpolate, lambda_grid
from basinscope.model import TINY4, ArchDescriptor, ParamVector, init_random, sgd_step
from basinscope.numerics import _as_choice, _as_grid, _as_real
from basinscope.rng import (
    RngStream,
    derive_stream_id,
    gaussian,
    gaussian_rows,
    lane_permutations,
    lane_uniforms,
    uniform_in_ball,
)
from basinscope.similarity import mistake_ratios, mistake_table
from basinscope.spectrum import conv_singular_values, dense_singular_values
from basinscope.trainer import DataSpec, InitSpec, TrainConfig, config_hash


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
    # a numpy real is the Python float _as_real returns, so float32 arithmetic never leaks in
    f32 = np.float32
    assert np.array_equal(uniform_in_ball(RngStream(1, 2), np.zeros(4), f32(1.0)), uniform_in_ball(RngStream(1, 2), np.zeros(4), 1.0))
    assert type(BallSet(np.zeros(2), f32(0.5)).radius) is float
    assert type(CriticalityConfig("fc1", epsilon=f32(0.1)).epsilon) is float
    drop = relative_accuracy_drop(f32(0.8), 0.6)
    assert type(drop) is float and drop == relative_accuracy_drop(float(f32(0.8)), 0.6)
    bowl = lambda p: float(p @ p)
    report = check_basin(BallSet(np.zeros(2), f32(0.5)), bowl, f32(0.1), f32(0.2), 100, RngStream(1))
    assert json.loads(json.dumps(report.to_dict()))["epsilon"] == float(f32(0.1))
    fit = fit_basin(np.array([-0.1, 0.0]), np.array([0.1, 0.0]), bowl, f32(0.05), RngStream(1), samples=100)
    assert json.loads(json.dumps(fit.to_dict()))["epsilon_target"] == float(f32(0.05))
    assert np.array_equal(gaussian_rows(RngStream(1), 2, 3, f32(0.5)), gaussian_rows(RngStream(1), 2, 3, 0.5))
    params = init_random(TINY4, RngStream(3))
    grad = ParamVector(np.ones_like(params.values), params.index)
    numpy_step = sgd_step(params, grad, f32(0.05), grad, f32(0.9), f32(1e-4))
    float_step = sgd_step(params, grad, float(f32(0.05)), grad, float(f32(0.9)), float(f32(1e-4)))
    assert all(a.equals(b) for a, b in zip(numpy_step, float_step))


# Each kind of bound at its bound, just inside it and just outside it, as
# (bounds, value, accepted); the smallest steps are one float apart.
_TINY = math.ulp(0.0)
REAL_BOUNDS = {
    "least=0 at 0": (dict(least=0), 0.0, True),
    "least=0 inside": (dict(least=0), _TINY, True),
    "least=0 outside": (dict(least=0), -_TINY, False),
    "above=0 at 0": (dict(above=0), 0.0, False),
    "above=0 inside": (dict(above=0), _TINY, True),
    "above=0 outside": (dict(above=0), -_TINY, False),
    "below=1 at 1": (dict(below=1), 1.0, False),
    "below=1 inside": (dict(below=1), math.nextafter(1.0, 0.0), True),
    "below=1 outside": (dict(below=1), math.nextafter(1.0, 2.0), False),
    "least=0, below=1 at 0": (dict(least=0, below=1), 0.0, True),
    "least=0, below=1 outside 0": (dict(least=0, below=1), -_TINY, False),
}


@pytest.mark.parametrize("bounds,value,accepted", REAL_BOUNDS.values(), ids=REAL_BOUNDS.keys())
def test_real_bounds(bounds, value, accepted):
    if accepted:
        assert _as_real(value, "x", **bounds) == value
        assert _as_real(np.float64(value), "x", **bounds) == value
    else:
        with pytest.raises(DomainError, match=r"^x must be (at least|greater than|less than) [01], got "):
            _as_real(value, "x", **bounds)


def test_grid_bound_applies_to_every_entry():
    assert np.array_equal(_as_grid([_TINY, 1.0], "g", above=0), [_TINY, 1.0])
    for grid in ([0.0, 1.0], [-1.0, 1.0]):
        with pytest.raises(DomainError, match="every g entry must be greater than 0, got"):
            _as_grid(grid, "g", above=0)


# Choices that are not among their names, as (what, value); str subclasses
# (numpy strings) are accepted, other types and unhashable values are not.
CHOICES = ("train", "test")
NOT_A_CHOICE = {
    "other str": "val",
    "case differs": "Train",
    "bytes": b"train",
    "list": ["train"],
    "dict": {"train": 1},
    "None": None,
    "numpy str": np.str_("val"),
}


@pytest.mark.parametrize("value", NOT_A_CHOICE.values(), ids=NOT_A_CHOICE.keys())
def test_not_a_choice_raises_domain_error(value):
    with pytest.raises(DomainError, match=r"^split must be one of train, test; got "):
        _as_choice(value, "split", CHOICES)


def test_numpy_str_choice_acts_as_str():
    choice = _as_choice(np.str_("test"), "split", CHOICES)
    assert type(choice) is str and choice == "test"


_CURVE = BarrierCurve(np.linspace(0.0, 1.0, 3), {"t": {k: np.zeros(3) for k in ("train_loss", "train_acc", "test_loss", "test_acc")}})

# Each converted argument just past its bound, or a name not among its
# choices, as (argument name, call): the call must raise DomainError naming it.
PAST_THE_BOUND = {
    "BallSet(radius 0)": ("radius", lambda: BallSet(np.zeros(2), 0.0)),
    "check_basin(epsilon 0)": ("epsilon", lambda: check_basin(_BALL, lambda p: 0.0, 0.0, 0.1, 100, RngStream(1))),
    "check_basin(delta 0)": ("delta", lambda: check_basin(_BALL, lambda p: 0.0, 0.1, 0.0, 100, RngStream(1))),
    "fit_basin(epsilon_target 0)": ("epsilon_target", lambda: fit_basin(np.zeros(2), np.ones(2), lambda p: 0.0, 0.0, RngStream(1))),
    "CriticalityConfig(epsilon 0)": ("epsilon", lambda: CriticalityConfig("conv1", 0.0)),
    "CriticalityConfig(sigma 0)": ("sigma grid", lambda: CriticalityConfig("conv1", 0.1, sigma_grid=[0.0, 0.1])),
    "relative_accuracy_drop(0, 0.5)": ("a_pt", lambda: relative_accuracy_drop(0.0, 0.5)),
    "sgd_step(lr 0)": ("lr", lambda: _sgd(lr=0.0)),
    "sgd_step(momentum 1)": ("momentum", lambda: _sgd(momentum=1.0)),
    "sgd_step(momentum -tiny)": ("momentum", lambda: _sgd(momentum=-_TINY)),
    "sgd_step(weight_decay -tiny)": ("weight_decay", lambda: _sgd(weight_decay=-_TINY)),
    "TrainConfig(lr 0)": ("learning rate", lambda: config(lr_schedule=((0, 0.05), (1, 0.0)))),
    "TrainConfig(momentum 1)": ("momentum", lambda: config(momentum=1.0)),
    "TrainConfig(momentum -tiny)": ("momentum", lambda: config(momentum=-_TINY)),
    "TrainConfig(weight_decay -tiny)": ("weight_decay", lambda: config(weight_decay=-_TINY)),
    "TrainConfig(clip_grad_norm 0)": ("clip_grad_norm", lambda: config(clip_grad_norm=0.0)),
    "gaussian_rows(std -tiny)": ("std", lambda: gaussian_rows(RngStream(1), 2, 4, -_TINY)),
    "uniform_in_ball(radius -tiny)": ("radius", lambda: uniform_in_ball(RngStream(1), np.zeros(2), -_TINY)),
    "DomainSpec('cartoon')": ("domain", lambda: DomainSpec("cartoon")),
    "generate(split 'val')": ("split", lambda: generate(domain_spec("source"), "val", 10, 0)),
    "generate(split ['train'])": ("split", lambda: generate(domain_spec("source"), ["train"], 10, 0)),
    "InitSpec('pretrained')": ("init kind", lambda: InitSpec("pretrained")),
    "CriticalityConfig(noise_mode 'scaled')": ("noise_mode", lambda: CriticalityConfig("conv1", 0.1, noise_mode="scaled")),
    "CriticalityConfig(metric 'accuracy')": ("metric", lambda: CriticalityConfig("conv1", 0.1, metric="accuracy")),
    "barrier_height(metric 'error')": ("metric", lambda: barrier_height(_CURVE, "error")),
    "BarrierCurve.series(['t'], 'test_loss')": ("dataset", lambda: _CURVE.series(["t"], "test_loss")),
    "BarrierCurve.series('t', ['test_loss'])": ("key", lambda: _CURVE.series("t", ["test_loss"])),
    "BarrierCurve.series('t', 'val_loss')": ("key", lambda: _CURVE.series("t", "val_loss")),
    "mistake_table(group_by 'domain')": ("group_by", lambda: mistake_table([0, 1], [0, 1], [0, 1], group_by="domain")),
}


@pytest.mark.parametrize("what,call", PAST_THE_BOUND.values(), ids=PAST_THE_BOUND.keys())
def test_argument_past_its_bound_raises_domain_error(what, call):
    with pytest.raises(DomainError, match=f"^(every )?{what}( entry)? must be "):
        call()


def test_bounds_admit_their_edge():
    """Zero momentum, weight decay, spread and radius are in range."""
    params, _ = _sgd(momentum=0, weight_decay=0)
    assert params.equals(ParamVector.zeros(TINY4))
    assert config(momentum=0.0, weight_decay=0.0).momentum == 0.0
    assert np.array_equal(gaussian_rows(RngStream(1), 2, 3, 0), np.zeros((2, 3)))
    assert np.array_equal(uniform_in_ball(RngStream(1), [1.0, 2.0], 0), [1.0, 2.0])


def test_numpy_strs_act_as_strs():
    assert type(domain_spec(np.str_("source")).domain_id) is str
    split = generate(domain_spec("source"), np.str_("test"), 10, 0).split
    assert type(split) is str and split == "test"
    init = InitSpec(np.str_("random"), seed=3)
    assert type(init.kind) is str and config_hash(config(init=init)) == config_hash(config(init=InitSpec("random", seed=3)))
    cfg = CriticalityConfig("conv1", 0.1, noise_mode=np.str_("raw"), metric=np.str_("xent"))
    assert (type(cfg.noise_mode), type(cfg.metric)) == (str, str)
    assert barrier_height(_CURVE, np.str_("accuracy")) == barrier_height(_CURVE, "accuracy")
    assert np.array_equal(_CURVE.series(np.str_("t"), np.str_("test_loss")), _CURVE.series("t", "test_loss"))
    table = mistake_table([0, 1], [0, 0], [0, 1], group_by=np.str_("class"))
    assert [r.group for r in table.rows] == ["0", "1"]


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
