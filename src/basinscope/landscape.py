"""Linear interpolation and extrapolation between trained parameter vectors,
and the barrier statistics measured along those paths.

The barrier of a metric series is its worst deviation from the linear
baseline between the endpoints, clamped at zero: a curve that never rises
above the endpoint chord has no barrier.

A curve is built in two steps (``barrier_curve_from_fn``): every point on
the path is made first, then each named evaluation takes the whole list of
points and returns one metric row per point. So ``barrier_curve`` scores
all points on a split in one pass of the core, each tile's conv1 patches
gathered once for every point, with the bits of scoring each point alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeError
from .model import ParamVector
from .numerics import _as_choice, _as_grid, _as_int, _as_real
from .trainer import Checkpoint, _same_arch, _split_rows

METRIC_KEYS = ("train_loss", "train_acc", "test_loss", "test_acc")


@dataclass
class BarrierCurve:
    lambdas: np.ndarray
    # metrics[dataset_name][metric_key] -> array over lambdas
    metrics: dict

    def series(self, dataset: str | None, key: str) -> np.ndarray:
        """One metric over lambdas; dataset None means the first dataset.
        DomainError for an unknown dataset or key, and for dataset None on
        a curve with no datasets."""
        name = _as_choice(dataset if dataset is not None else next(iter(self.metrics), None), "dataset", self.metrics)
        return np.asarray(self.metrics[name][_as_choice(key, "key", self.metrics[name])])


def interpolate(theta: ParamVector, theta_tilde: ParamVector, lam: float) -> ParamVector:
    """(1 - lam) * theta + lam * theta_tilde; lam outside [0, 1] extrapolates."""
    if not theta.same_index(theta_tilde):
        raise DomainError("parameter vectors have different index tables")
    lam = _as_real(lam, "lam")
    a = theta.values.astype(np.float64)
    b = theta_tilde.values.astype(np.float64)
    mixed = (1.0 - lam) * a + lam * b
    return ParamVector(mixed.astype(theta.values.dtype), theta.index)


def lambda_grid(lo: float = 0.0, hi: float = 1.0, points: int = 25) -> np.ndarray:
    return np.linspace(_as_real(lo, "lo"), _as_real(hi, "hi"), _as_int(points, "points", 2))


def barrier_curve_from_fn(lambdas, point_fn, eval_fns: dict) -> BarrierCurve:
    """Generic curve builder: point_fn(lam) -> point for every lambda first,
    then eval_fns name -> fn(points) -> one metric dict per point, in the
    points' order. DomainError for no eval_fns, SizeError when a fn returns
    another number of rows than there are points.

    This is the hook the tests drive with closed-form scalar losses.
    """
    lambdas = _as_grid(lambdas, "lambdas")
    if not eval_fns:
        raise DomainError("need at least one evaluation dataset")
    points = [point_fn(float(lam)) for lam in lambdas]
    metrics = {}
    for name, fn in eval_fns.items():
        rows = fn(points)
        if len(rows) != len(points):
            raise SizeError(f"{name} gave {len(rows)} metric rows for {len(points)} points")
        metrics[name] = {k: np.array([float(row[k]) for row in rows]) for k in METRIC_KEYS}
    return BarrierCurve(lambdas=lambdas, metrics=metrics)


def barrier_curve(ckpt_a: Checkpoint, ckpt_b: Checkpoint, lambdas, eval_datasets: dict) -> BarrierCurve:
    """Evaluate every interpolated model on every named (train, test) dataset pair.

    eval_datasets: name -> (train Dataset, test Dataset); names may be other
    domains than the endpoints' training domain (cross-domain evaluation).
    Each split scores every point in one pass (``trainer._split_rows``).
    """
    arch = _same_arch(ckpt_a, ckpt_b)

    def point_fn(lam):
        return interpolate(ckpt_a.params, ckpt_b.params, lam)

    eval_fns = {name: (lambda points, pair=pair: _split_rows(points, arch, *pair)) for name, pair in eval_datasets.items()}
    return barrier_curve_from_fn(lambdas, point_fn, eval_fns)


def barrier_height(curve: BarrierCurve, metric: str = "loss", dataset: str | None = None, split: str = "test") -> float:
    """Worst rise above (loss) or drop below (accuracy) the endpoint chord on
    [0, 1]; DomainError if the metric is NaN anywhere there or infinite at
    an endpoint (the chord would be inf - inf there). An infinite interior
    point is an infinite barrier."""
    metric = _as_choice(metric, "metric", ("loss", "accuracy"))
    split = _as_choice(split, "split", ("train", "test"))
    key = f"{split}_{'loss' if metric == 'loss' else 'acc'}"
    lam = curve.lambdas
    inside = (lam >= 0.0) & (lam <= 1.0)
    if not inside.any() or lam[inside].min() > 0.0 or lam[inside].max() < 1.0:
        raise DomainError("curve must cover [0, 1]")
    series = curve.series(dataset, key)[inside]
    if np.isnan(series).any():
        raise DomainError(f"{key} is NaN on [0, 1]; a barrier needs every point")
    if not (np.isfinite(series[0]) and np.isfinite(series[-1])):
        raise DomainError(f"{key} is infinite at an endpoint; a barrier needs a finite chord")
    lam = lam[inside]
    baseline = (1.0 - lam) * series[0] + lam * series[-1]
    if metric == "loss":
        gap = series - baseline
    else:
        gap = baseline - series
    return max(0.0, float(gap.max()))
