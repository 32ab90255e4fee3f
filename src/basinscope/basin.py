"""Monte-Carlo certification of (epsilon, delta)-basins over balls in
parameter space.

A ball S is certified by three estimates: (1) the mean absolute deviation of
the loss inside S stays within epsilon; (2) Gaussian perturbations of
boundary points raise the loss by at least 2*epsilon; (3) half-normal
outward extrapolation past the boundary does the same. Verdicts require a
two-standard-error margin in either direction; anything closer is
inconclusive.

One set of frozen draws per ball serves every delta: the losses at the
inside points, evaluated as the points are drawn (the points are not kept),
and the boundary chords with their noise, on which a search over delta
re-evaluates only conditions 2 and 3.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError
from .model import ParamVector
from .numerics import _as_int, _as_real, _as_vector
from .rng import RngStream, gaussian, gaussian_rows, uniform_in_ball

_STREAM_MU = 1
_STREAM_PAIRS2 = 2
_STREAM_NOISE2 = 3
_STREAM_PAIRS3 = 4
_STREAM_NOISE3 = 5
_STREAM_DEGENERATE = 6

# fit_basin's search: segment-loss points, line-walk step (in units of the
# endpoint distance) and step cap, bisection steps per crossing, the delta
# bracket in units of the fitted radius, and bisection steps within it.
INTERVAL_POINTS = 21
WALK_STEP = 0.25
MAX_WALK_STEPS = 60
BISECT_STEPS = 12
DELTA_BRACKET = (1e-3, 10.0)
DELTA_BISECT_STEPS = 20


@dataclass
class BallSet:
    """Closed ball: the concrete convex family used for certification."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = _as_vector(self.center, "center")
        if _as_real(self.radius, "radius") <= 0:
            raise DomainError("radius must be positive")

    @property
    def dimension(self) -> int:
        return self.center.size


@dataclass
class ConditionEstimate:
    estimate: float
    stderr: float
    threshold: float
    relation: str  # "<=" (condition 1) or ">=" (conditions 2, 3)
    verdict: str = field(init=False)

    def __post_init__(self):
        margin = 2.0 * self.stderr
        if self.relation == "<=":
            ok, bad = self.estimate <= self.threshold - margin, self.estimate > self.threshold + margin
        else:
            ok, bad = self.estimate >= self.threshold + margin, self.estimate < self.threshold - margin
        self.verdict = "pass" if ok else ("fail" if bad else "inconclusive")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BasinReport:
    mu_hat: float
    cond1: ConditionEstimate
    cond2: ConditionEstimate
    cond3: ConditionEstimate
    epsilon: float
    delta: float
    samples: int

    def all_pass(self) -> bool:
        return all(c.verdict == "pass" for c in (self.cond1, self.cond2, self.cond3))

    def to_dict(self) -> dict:
        return {
            "mu": self.mu_hat,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "samples": self.samples,
            "cond1": self.cond1.to_dict(),
            "cond2": self.cond2.to_dict(),
            "cond3": self.cond3.to_dict(),
        }


def boundary_point(ball: BallSet, w1, w2) -> np.ndarray:
    """Farthest point of the ball along the ray from w1 through w2 (closed form)."""
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    d = w2 - w1
    dd = float(d @ d)
    if dd == 0.0:
        raise DomainError("degenerate ray: w1 == w2")
    rel = w1 - ball.center
    b = 2.0 * float(rel @ d)
    c = float(rel @ rel) - ball.radius**2
    disc = b * b - 4.0 * dd * c
    if disc < 0:
        raise DomainError("ray does not intersect the ball (w1 outside?)")
    alpha = (-b + math.sqrt(disc)) / (2.0 * dd)
    return w1 + alpha * d


def _finite_losses(values, where: str) -> np.ndarray:
    """The losses as an array; DomainError naming where if any is NaN or +-inf."""
    losses = np.array(values)
    if not np.all(np.isfinite(losses)):
        raise DomainError(f"loss returned non-finite value on {where}")
    return losses


def _chords(ball: BallSet, rng: RngStream, samples: int):
    """(start, boundary) per chord: a uniform start in the ball, a uniform
    second point, and the ball's boundary along the ray through them."""
    for _ in range(samples):
        w1 = uniform_in_ball(rng, ball.center, ball.radius)
        w2 = uniform_in_ball(rng, ball.center, ball.radius)
        yield w1, boundary_point(ball, w1, w2)


class _ConditionDraws:
    """Frozen random draws, holding the inside points' losses in place of the
    points, so delta can vary with common random numbers."""

    def __init__(self, ball: BallSet, rng: RngStream, samples: int, loss):
        n = ball.dimension
        mu_rng = rng.split(_STREAM_MU)
        self.ball = ball
        self.inside_losses = _finite_losses(
            [loss(uniform_in_ball(mu_rng, ball.center, ball.radius)) for _ in range(samples)], "a ball sample"
        )

        self.f2 = [f for _, f in _chords(ball, rng.split(_STREAM_PAIRS2), samples)]
        self.z2 = gaussian_rows(rng.split(_STREAM_NOISE2), samples, n, 1.0)

        self.f3, self.dir3 = [], []
        for w1, f in _chords(ball, rng.split(_STREAM_PAIRS3), samples):
            self.f3.append(f)
            self.dir3.append((f - w1) / np.linalg.norm(f - w1))
        self.z3 = np.abs(gaussian(rng.split(_STREAM_NOISE3), samples, 1.0))


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    x = np.asarray(x, dtype=np.float64)
    se = float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
    return float(x.mean()), se


def _report_from_draws(draws: _ConditionDraws, loss, epsilon: float, delta: float) -> BasinReport:
    """Estimates and standard errors that account for mu_hat being estimated.

    cond1 = mean |L - mu_hat| has influence |L - mu| + (2 P(L < mu) - 1)(L - mu);
    cond2 and cond3 subtract mu_hat from means over separate streams, so
    Var(mu_hat) adds to their variances.
    """
    n = draws.ball.dimension
    losses = draws.inside_losses
    mu_hat = float(losses.mean())
    se_mu = _mean_se(losses)[1]
    dev = losses - mu_hat
    est1 = _mean_se(np.abs(dev))[0]
    se1 = _mean_se(np.abs(dev) + (2.0 * np.mean(losses < mu_hat) - 1.0) * dev)[1]
    scale2 = delta / math.sqrt(n)
    vals2 = _finite_losses([loss(f + scale2 * z) for f, z in zip(draws.f2, draws.z2)], "a condition-2 probe")
    est2, se2 = _mean_se(vals2 - mu_hat)
    vals3 = [loss(f + (delta * a) * d) for f, d, a in zip(draws.f3, draws.dir3, draws.z3)]
    vals3 = _finite_losses(vals3, "a condition-3 probe")
    est3, se3 = _mean_se(vals3 - mu_hat)
    return BasinReport(
        mu_hat=mu_hat,
        cond1=ConditionEstimate(est1, se1, epsilon, "<="),
        cond2=ConditionEstimate(est2, math.hypot(se2, se_mu), 2.0 * epsilon, ">="),
        cond3=ConditionEstimate(est3, math.hypot(se3, se_mu), 2.0 * epsilon, ">="),
        epsilon=epsilon,
        delta=delta,
        samples=len(losses),
    )


def check_basin(ball: BallSet, loss, epsilon: float, delta: float, samples: int, rng: RngStream) -> BasinReport:
    """Estimate the three conditions by Monte Carlo and return verdicts.

    loss maps a flat float64 vector to a scalar; epsilon and delta are the
    candidate basin parameters.
    """
    samples = _as_int(samples, "samples", 100)
    if _as_real(epsilon, "epsilon") <= 0 or _as_real(delta, "delta") <= 0:
        raise DomainError("epsilon and delta must be positive")
    return _report_from_draws(_ConditionDraws(ball, rng, samples, loss), loss, epsilon, delta)


@dataclass
class BasinFit:
    verdict: str  # "in_basin" | "not_in_one_basin"
    reason: str
    ball: BallSet | None
    mu_segment: float
    epsilon_target: float
    epsilon_certified: float | None
    delta_certified: float | None
    report: BasinReport | None
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "radius": None if self.ball is None else self.ball.radius,
            "dimension": None if self.ball is None else self.ball.dimension,
            "mu_segment": self.mu_segment,
            "epsilon_target": self.epsilon_target,
            "epsilon_certified": self.epsilon_certified,
            "delta_certified": self.delta_certified,
            "degenerate": self.degenerate,
            "report": None if self.report is None else self.report.to_dict(),
        }


def _walk_to_threshold(point_fn, loss, lam_from: float, direction: float, threshold: float) -> float | None:
    """March along the line until the loss crosses threshold; bisect the crossing."""
    prev = lam_from
    for j in range(1, MAX_WALK_STEPS + 1):
        lam = lam_from + direction * WALK_STEP * j
        if loss(point_fn(lam)) > threshold:
            lo, hi = prev, lam
            for _ in range(BISECT_STEPS):
                mid = 0.5 * (lo + hi)
                if loss(point_fn(mid)) > threshold:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
        prev = lam
    return None


def fit_basin(
    theta_a,
    theta_b,
    loss,
    epsilon_target: float,
    rng: RngStream,
    samples: int = 500,
) -> BasinFit:
    """Fit a ball to two solutions by walking their line to the loss boundary,
    then certify (epsilon, delta) per the three conditions.

    Accepts ParamVectors or flat arrays. epsilon is certified as the measured
    condition-1 value; delta as the smallest value passing conditions 2 and 3,
    located by doubling-then-bisection with common random numbers. The delta
    bracket is expressed in units of the fitted radius.
    """
    samples = _as_int(samples, "samples", 100)
    if _as_real(epsilon_target, "epsilon_target") <= 0:
        raise DomainError("epsilon_target must be positive")
    a, b = (_as_vector(t.values if isinstance(t, ParamVector) else t, "endpoint") for t in (theta_a, theta_b))
    if a.shape != b.shape:
        raise DomainError("endpoint shapes differ")

    degenerate = bool(np.array_equal(a, b))
    if degenerate:
        direction = gaussian(rng.split(_STREAM_DEGENERATE), a.size, 1.0)
        direction /= np.linalg.norm(direction)
        point_fn = lambda lam: a + lam * direction
        seg_losses = _finite_losses([loss(a)], "the segment")
        loss_a = loss_b = float(seg_losses[0])
    else:
        d = b - a
        point_fn = lambda lam: a + lam * d
        seg = np.linspace(0.0, 1.0, INTERVAL_POINTS)
        seg_losses = _finite_losses([loss(point_fn(t)) for t in seg], "the segment")
        loss_a, loss_b = float(loss(a)), float(loss(b))
    mu_seg = float(seg_losses.mean())
    threshold = mu_seg + 2.0 * epsilon_target

    def reject(reason: str, ball=None, eps=None, report=None) -> BasinFit:
        return BasinFit("not_in_one_basin", reason, ball, mu_seg, epsilon_target, eps, None, report, degenerate)

    if loss_a > threshold or loss_b > threshold:
        return reject("an endpoint sits above the segment loss threshold")

    lam_hi = _walk_to_threshold(point_fn, loss, 1.0 if not degenerate else 0.0, +1.0, threshold)
    lam_lo = _walk_to_threshold(point_fn, loss, 0.0, -1.0, threshold)
    if lam_hi is None or lam_lo is None:
        return reject("no loss boundary found along the line within the walk range")

    center = point_fn(0.5 * (lam_lo + lam_hi))
    radius = float(np.linalg.norm(point_fn(lam_hi) - point_fn(lam_lo))) / 2.0
    if radius <= 0:
        return reject("degenerate zero radius")
    ball = BallSet(center, radius)

    draws = _ConditionDraws(ball, rng, samples, loss)
    lo_d, hi_d = DELTA_BRACKET[0] * radius, DELTA_BRACKET[1] * radius
    base = _report_from_draws(draws, loss, epsilon_target, hi_d)
    eps_cert = base.cond1.estimate
    if base.cond1.verdict != "pass":
        return reject("condition 1 fails at the target epsilon (loss varies across the ball)", ball, eps_cert, base)

    def passes(delta: float) -> tuple[bool, BasinReport]:
        rep = _report_from_draws(draws, loss, eps_cert, delta)
        return rep.cond2.verdict == "pass" and rep.cond3.verdict == "pass", rep

    # double up from the bracket floor until a delta passes, then bisect
    # between the last failing and the first passing delta; when doubling
    # is capped at hi_d the last failure is not hi_d / 2
    delta, lo = lo_d, None
    ok, report = passes(delta)
    while not ok and delta < hi_d:
        lo, delta = delta, min(2.0 * delta, hi_d)
        ok, report = passes(delta)
    if not ok:
        return reject("conditions 2-3 fail for every delta in the bracket", ball, eps_cert, report)
    if lo is not None:
        for _ in range(DELTA_BISECT_STEPS):
            mid = 0.5 * (lo + delta)
            ok, rep = passes(mid)
            if ok:
                delta, report = mid, rep
            else:
                lo = mid
    return BasinFit("in_basin", "ok", ball, mu_seg, epsilon_target, eps_cert, delta, report, degenerate)
