import numpy as np
import pytest

from basinscope.errors import DomainError
from basinscope.landscape import (
    BarrierCurve,
    barrier_curve,
    barrier_curve_from_fn,
    barrier_height,
    interpolate,
    lambda_grid,
)
from basinscope.dataops import domain_spec, generate
from basinscope.model import TINY4, ArchDescriptor, ParamVector, init_random
from basinscope.rng import RngStream
from basinscope.trainer import Checkpoint, evaluate


def scalar_curve(loss_fn, lambdas, w_a, w_b):
    """Pluggable scalar-loss hook: metrics all mirror the scalar loss."""

    def point_fn(lam):
        return (1 - lam) * w_a + lam * w_b

    def eval_fn(w):
        value = loss_fn(w)
        return {"train_loss": value, "train_acc": -value, "test_loss": value, "test_acc": -value}

    return barrier_curve_from_fn(lambdas, point_fn, {"scalar": eval_fn})


def double_well(w):
    return min((w - 1.0) ** 2, (w + 1.0) ** 2)


def make_ckpt(seed):
    return Checkpoint(
        arch=TINY4,
        params=init_random(TINY4, RngStream(seed)),
        epoch=0,
        metrics={},
        config_hash="",
        rng_digest="",
    )


class TestInterpolate:
    def test_lambda_zero_is_first_endpoint(self):
        a = init_random(TINY4, RngStream(1))
        b = init_random(TINY4, RngStream(2))
        assert interpolate(a, b, 0.0).equals(a)

    def test_midpoint_of_opposites_is_zero(self):
        a = init_random(TINY4, RngStream(3))
        b = ParamVector(-a.values, a.index)
        mid = interpolate(a, b, 0.5)
        assert np.all(mid.values == 0)

    def test_extrapolation_formula(self):
        idx = init_random(TINY4, RngStream(4)).index
        total = idx[-1].offset + idx[-1].length
        a = ParamVector(np.full(total, 1.0, dtype=np.float32), idx)
        b = ParamVector(np.full(total, 3.0, dtype=np.float32), idx)
        out = interpolate(a, b, 2.0)
        assert np.all(out.values == 5.0)

    def test_index_mismatch_rejected(self):
        small = ArchDescriptor((8, 8, 3), ((4, 3, 1),), (8,), 10)
        a = init_random(TINY4, RngStream(5))
        b = init_random(small, RngStream(5))
        with pytest.raises(DomainError):
            interpolate(a, b, 0.5)


class TestBarrierCurve:
    def test_identical_endpoints_flat(self):
        ckpt = make_ckpt(6)
        ds = generate(domain_spec("source"), "train", 40, 1), generate(domain_spec("source"), "test", 20, 1)
        curve = barrier_curve(ckpt, ckpt, lambda_grid(0, 1, 5), {"source": ds})
        series = curve.series("source", "test_loss")
        assert np.allclose(series, series[0], atol=1e-12)
        assert barrier_height(curve, "loss") == 0.0

    def test_endpoints_match_direct_evaluation(self):
        a, b = make_ckpt(7), make_ckpt(8)
        train_ds = generate(domain_spec("source"), "train", 40, 2)
        test_ds = generate(domain_spec("source"), "test", 20, 2)
        curve = barrier_curve(a, b, lambda_grid(0, 1, 3), {"source": (train_ds, test_ds)})
        direct_a = evaluate(a.params, TINY4, test_ds)
        direct_b = evaluate(b.params, TINY4, test_ds)
        assert curve.series("source", "test_loss")[0] == pytest.approx(direct_a.loss, abs=1e-6)
        assert curve.series("source", "test_loss")[-1] == pytest.approx(direct_b.loss, abs=1e-6)

    def test_double_well_closed_form(self):
        lambdas = np.linspace(0, 1, 5)
        curve = scalar_curve(double_well, lambdas, -1.0, 1.0)
        assert curve.series("scalar", "train_loss")[0] == pytest.approx(0.0)
        assert curve.series("scalar", "train_loss")[-1] == pytest.approx(0.0)
        assert curve.series("scalar", "train_loss")[2] == pytest.approx(1.0)
        assert barrier_height(curve, "loss", "scalar", split="train") == pytest.approx(1.0)

    def test_extrapolation_grid_supported(self):
        lambdas = np.linspace(-1, 2, 61)
        curve = scalar_curve(lambda w: w * w, lambdas, 0.0, 1.0)
        assert curve.lambdas[0] == -1.0 and curve.lambdas[-1] == 2.0
        assert curve.series("scalar", "train_loss")[0] == pytest.approx(1.0)  # w=-1
        assert curve.series("scalar", "train_loss")[-1] == pytest.approx(4.0)  # w=2

    def test_arch_mismatch_rejected(self):
        small = ArchDescriptor((8, 8, 3), ((4, 3, 1),), (8,), 10)
        a = make_ckpt(9)
        b = Checkpoint(small, init_random(small, RngStream(9)), 0, {}, "", "")
        with pytest.raises(DomainError):
            barrier_curve(a, b, lambda_grid(), {"x": (None, None)})

    def test_no_evaluation_dataset_rejected(self):
        a = make_ckpt(9)
        with pytest.raises(DomainError, match="at least one evaluation dataset"):
            barrier_curve(a, a, lambda_grid(), {})


class TestBarrierHeight:
    def test_convex_below_baseline_clamps_to_zero(self):
        # interpolants better than endpoints: no barrier
        lambdas = np.linspace(0, 1, 11)
        curve = scalar_curve(lambda w: (w - 0.5) ** 2, lambdas, 0.0, 1.0)
        assert barrier_height(curve, "loss", "scalar", split="train") == 0.0

    def test_accuracy_barrier_uses_drop_below_baseline(self):
        lambdas = np.linspace(0, 1, 5)
        acc = np.array([0.8, 0.5, 0.2, 0.5, 0.8])
        metrics = {"d": {k: acc.copy() for k in ("train_loss", "train_acc", "test_loss", "test_acc")}}
        curve = BarrierCurve(lambdas, metrics)
        assert barrier_height(curve, "accuracy", "d") == pytest.approx(0.6)

    def test_symmetric_under_endpoint_reversal(self):
        lambdas = np.linspace(0, 1, 9)
        curve_ab = scalar_curve(double_well, lambdas, -1.0, 1.0)
        curve_ba = scalar_curve(double_well, lambdas, 1.0, -1.0)
        h_ab = barrier_height(curve_ab, "loss", "scalar", split="train")
        h_ba = barrier_height(curve_ba, "loss", "scalar", split="train")
        assert h_ab == pytest.approx(h_ba)

    def test_requires_unit_interval_coverage(self):
        lambdas = np.linspace(0.2, 0.8, 5)
        curve = scalar_curve(double_well, lambdas, -1.0, 1.0)
        with pytest.raises(DomainError):
            barrier_height(curve, "loss", "scalar")

    def test_extrapolated_grid_still_measures_inside_unit_interval(self):
        lambdas = np.linspace(-1, 2, 13)
        curve = scalar_curve(double_well, lambdas, -1.0, 1.0)
        # grid contains 0 and 1 exactly; barrier measured between them
        assert barrier_height(curve, "loss", "scalar", split="train") == pytest.approx(1.0)

    def test_nan_series_raises_and_inf_reads_inf(self):
        """max(0.0, nan) is 0.0 in Python, which would read a NaN curve as the
        one-basin verdict; a NaN on [0, 1] raises, naming the metric."""
        lambdas = np.linspace(0.0, 1.0, 5)
        nan_curve = scalar_curve(lambda w: np.nan if w == 0.5 else w * w, lambdas, -1.0, 1.0)
        with pytest.raises(DomainError, match="test_loss"):
            barrier_height(nan_curve, "loss")
        inf_curve = scalar_curve(lambda w: np.inf if w == 0.5 else w * w, lambdas, -1.0, 1.0)
        assert barrier_height(inf_curve, "loss") == np.inf

    @pytest.mark.parametrize("end", [0, -1])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_endpoint_raises(self, end, value):
        """The chord through an infinite endpoint is inf - inf = NaN there,
        which max(0.0, nan) would read as no barrier."""
        series = np.ones(5)
        series[end] = value
        metrics = {"d": {k: series.copy() for k in ("train_loss", "train_acc", "test_loss", "test_acc")}}
        curve = BarrierCurve(np.linspace(0.0, 1.0, 5), metrics)
        for metric in ("loss", "accuracy"):
            with pytest.raises(DomainError, match="test_.* infinite at an endpoint"):
                barrier_height(curve, metric)

    def test_unknown_metric_raises_domain_error(self):
        curve = scalar_curve(double_well, np.linspace(0, 1, 5), -1.0, 1.0)
        with pytest.raises(DomainError, match="metric must be one of loss, accuracy"):
            barrier_height(curve, metric="error")

    def test_unknown_split_raises_domain_error(self):
        curve = scalar_curve(double_well, np.linspace(0, 1, 5), -1.0, 1.0)
        with pytest.raises(DomainError, match="val_loss"):
            barrier_height(curve, split="val")

    def test_unknown_dataset_raises_domain_error(self):
        curve = scalar_curve(double_well, np.linspace(0, 1, 5), -1.0, 1.0)
        with pytest.raises(DomainError, match="nope"):
            barrier_height(curve, dataset="nope")
