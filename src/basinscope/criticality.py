"""Module criticality: how cheaply a module's weights can be moved back
toward initialization under Gaussian noise while the network keeps its
training performance.

A criticality map sweeps (alpha, sigma): alpha, in [0, 1], positions the module on a
path from its initial to its trained value (straight line, or, given
training checkpoints, the polyline through them), sigma scales the added
noise. Every other module stays at its trained value. The criticality score is the smallest
alpha^2 * dist^2 / sigma^2 over cells whose mean train metric stays within
epsilon.

Only the perturbed module changes from cell to cell, so ``criticality_map``
runs the frozen prefix once per map: it caches one array per evaluation
batch, for a conv module the gathered patches of its input and otherwise
the input itself, and each noise sample runs only the module and the
layers after it, with the same arithmetic as ``evaluate``: the
forward core runs the conv layers over tiles of a few images, so each
tile stays in cache, its cached patches a view of the batch's, and the
dense layers once on the whole batch, so their bits do not depend on the
tile size (``model._run_layers``). The cache holds float64 arrays; the
largest is a conv1 map's, about 21 MB of patches at 384 images on TINY4.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .model import ParamVector, _module_input, _run_layers
from .numerics import _as_choice, _as_grid, _as_int, _as_real
from .rng import RngStream, gaussian_rows
from .trainer import Checkpoint, _eval_batches, _same_arch, _score_batches, split_metrics

NOISE_MODES = ("current_norm", "raw")


@dataclass
class CriticalityConfig:
    module_name: str
    epsilon: float
    alpha_grid: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 1.0, 21))
    sigma_grid: np.ndarray = field(default_factory=lambda: np.logspace(-3, 0, 16))
    noise_samples: int = 20
    noise_mode: str = "current_norm"
    metric: str = "error"  # "error" | "xent"

    def __post_init__(self):
        self.alpha_grid = _as_grid(self.alpha_grid, "alpha grid")
        # alpha is a fraction of the path (Chatterji et al. 2020): past its
        # ends the straight path extrapolates while the polyline clamps
        if self.alpha_grid[0] < 0 or self.alpha_grid[-1] > 1:
            raise DomainError(f"every alpha grid entry must lie in [0, 1], got {self.alpha_grid.tolist()}")
        self.sigma_grid = _as_grid(self.sigma_grid, "sigma grid", above=0)
        self.noise_samples = _as_int(self.noise_samples, "noise_samples", 1)
        self.epsilon = _as_real(self.epsilon, "epsilon", above=0)
        self.noise_mode = _as_choice(self.noise_mode, "noise_mode", NOISE_MODES)
        self.metric = _as_choice(self.metric, "metric", ("error", "xent"))


@dataclass
class CriticalityMap:
    module_name: str
    alpha_grid: np.ndarray
    sigma_grid: np.ndarray
    train: np.ndarray  # (alpha, sigma) mean train metric over noise samples
    test: np.ndarray
    epsilon: float
    path_distance: float  # ||theta_E - theta_0||
    mu: float  # +inf when no feasible cell
    argmin: tuple[float, float] | None

    @property
    def feasible(self) -> np.ndarray:
        return _feasible(self.train, self.epsilon)


def _feasible(train_grid, epsilon) -> np.ndarray:
    """The cells whose mean train metric stays within epsilon."""
    return np.asarray(train_grid) <= epsilon


def _minimize(alphas, sigmas, train_grid, epsilon, path_distance):
    """Smallest alpha^2 * dist^2 / sigma^2 over feasible cells and its (alpha,
    sigma); ties go to the first cell in row-major order. (inf, None) when no
    feasible cell has a value below inf."""
    alphas, sigmas = np.asarray(alphas), np.asarray(sigmas)
    values = (alphas * alphas)[:, None] * (path_distance * path_distance) / (sigmas * sigmas)
    values = np.where(_feasible(train_grid, epsilon) & (values < math.inf), values, math.inf)
    i, j = np.unravel_index(np.argmin(values), values.shape)
    if values[i, j] == math.inf:
        return math.inf, None
    return float(values[i, j]), (float(alphas[i]), float(sigmas[j]))


def _module_stream_key(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")


def _polyline_point(points: list[np.ndarray], alpha: float) -> np.ndarray:
    """Point at arclength fraction alpha along the checkpoint polyline."""
    lengths = np.array([np.linalg.norm(b - a) for a, b in zip(points, points[1:])])
    ends = np.cumsum(lengths)  # arclength at the end of each segment
    if ends[-1] == 0.0:
        return points[0].copy()
    target = alpha * ends[-1]
    # the first segment that reaches target, else the last one
    i = min(int(np.searchsorted(ends, target)), len(lengths) - 1)
    walked = ends[i - 1] if i > 0 else 0.0
    t = 0.0 if lengths[i] == 0 else (target - walked) / lengths[i]
    t = min(max(t, 0.0), 1.0)
    return points[i] + t * (points[i + 1] - points[i])


def criticality_grid(
    theta0: np.ndarray,
    theta_end: np.ndarray,
    eval_fn,
    cfg: CriticalityConfig,
    rng: RngStream,
    path_points: list[np.ndarray] | None = None,
) -> CriticalityMap:
    """Generic grid engine over one module's flat vector.

    eval_fn(vector) -> (train_metric, test_metric). The network wrapper
    substitutes the vector into the module's slice; the synthetic closed-form
    tests drive this directly.
    """
    theta0 = np.asarray(theta0, dtype=np.float64)
    theta_end = np.asarray(theta_end, dtype=np.float64)
    p = theta0.size
    path_distance = float(np.linalg.norm(theta_end - theta0))
    if path_points is not None and len(path_points) < 2:
        raise DomainError("optimization path needs at least two checkpoints")
    points = None if path_points is None else [np.asarray(q, dtype=np.float64) for q in path_points]

    na, ns = cfg.alpha_grid.size, cfg.sigma_grid.size
    train_grid = np.zeros((na, ns))
    test_grid = np.zeros((na, ns))
    key = _module_stream_key(cfg.module_name)
    for i, alpha in enumerate(cfg.alpha_grid):
        if points is not None:
            theta_alpha = _polyline_point(points, float(alpha))
        else:
            theta_alpha = (1.0 - alpha) * theta0 + alpha * theta_end
        if cfg.noise_mode == "current_norm":
            scale = float(np.linalg.norm(theta_alpha)) / math.sqrt(p)
        else:
            scale = 1.0
        for j, sigma in enumerate(cfg.sigma_grid):
            cell_rng = rng.split(key, i, j)
            std = float(sigma) * scale
            tr_acc = 0.0
            te_acc = 0.0
            for u in gaussian_rows(cell_rng, cfg.noise_samples, p, std):
                tr, te = eval_fn(theta_alpha + u)
                tr_acc += tr
                te_acc += te
            train_grid[i, j] = tr_acc / cfg.noise_samples
            test_grid[i, j] = te_acc / cfg.noise_samples
    mu, arg = _minimize(cfg.alpha_grid, cfg.sigma_grid, train_grid, cfg.epsilon, path_distance)
    return CriticalityMap(
        module_name=cfg.module_name,
        alpha_grid=cfg.alpha_grid.copy(),
        sigma_grid=cfg.sigma_grid.copy(),
        train=train_grid,
        test=test_grid,
        epsilon=cfg.epsilon,
        path_distance=path_distance,
        mu=mu,
        argmin=arg,
    )


def criticality_map(
    final_or_opt: Checkpoint,
    init: Checkpoint,
    cfg: CriticalityConfig,
    rng: RngStream,
    train_ds,
    test_ds,
    checkpoints: list[Checkpoint] | None = None,
) -> CriticalityMap:
    """Criticality map for one module of a trained network.

    final_or_opt supplies both the frozen context (all other modules) and the
    path endpoint; the caller picks the endpoint (the final or the optimal
    checkpoint) by what it passes. Passing checkpoints, the saved ones up to
    that endpoint in any order, selects the optimization path: the polyline
    from init's module through the checkpoints' in epoch order to the
    endpoint's, init's not repeated when the earliest checkpoint's module
    equals it.

    The frozen prefix's output, the module's input (for a conv module, its
    patches), is computed once per evaluation batch; every noise sample runs
    only the module and the layers after it.
    """
    arch = _same_arch(final_or_opt, init, *(checkpoints or ()))
    span = final_or_opt.params.module_slice(cfg.module_name)
    base = final_or_opt.params.values.astype(np.float64)
    theta0 = init.params.values[span].astype(np.float64)
    theta_end = final_or_opt.params.values[span].astype(np.float64)

    path_points = None
    if checkpoints is not None:
        if not checkpoints:
            raise DomainError("optimization path requires checkpoints")
        ordered = sorted(checkpoints, key=lambda c: c.epoch)
        for a, b in zip(ordered, ordered[1:]):
            if a.epoch == b.epoch:
                raise DomainError("duplicate checkpoint epochs on optimization path")
        if ordered[-1].epoch > final_or_opt.epoch:
            raise DomainError(f"path checkpoint epoch {ordered[-1].epoch} is past the endpoint's {final_or_opt.epoch}")
        path_points = [c.params.values[span].astype(np.float64) for c in ordered]
        # the path starts at init's module, whatever the earliest checkpoint's epoch
        if not np.array_equal(path_points[0], theta0):
            path_points.insert(0, theta0)
        path_points.append(theta_end)

    start = arch.module_names().index(cfg.module_name)
    splits = [
        (ds.labels, [_module_input(final_or_opt.params, arch, batch, start) for batch in _eval_batches(ds.images)])
        for ds in (train_ds, test_ds)
    ]

    def eval_fn(vec):
        work = base.copy()
        work[span] = vec
        params = ParamVector(work, final_or_opt.params.index)
        metrics = []
        for labels, cache in splits:
            logits = (_run_layers([params], arch, x, start, patches=patches)[0] for x, patches in cache)
            result = _score_batches(labels, arch.num_classes, logits)
            metrics.append(1.0 - result.accuracy if cfg.metric == "error" else result.loss)
        return tuple(metrics)

    return criticality_grid(theta0, theta_end, eval_fn, cfg, rng, path_points=path_points)


def rewind_probe(final: Checkpoint, init: Checkpoint, module_name: str, train_ds, test_ds) -> dict:
    """Evaluate the hybrid network with one module rewound to its init value."""
    arch = _same_arch(final, init)
    params = final.params.copy()
    span = params.module_slice(module_name)
    params.values[span] = init.params.values[span]
    return {"module": module_name, **split_metrics(params, arch, train_ds, test_ds)}

