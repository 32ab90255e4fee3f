import math

import numpy as np
import pytest
from scipy import stats

from basinscope.basin import BallSet, BasinReport, ConditionEstimate, boundary_point, check_basin, fit_basin
from basinscope.errors import DomainError
from basinscope.rng import RngStream, gaussian


def double_well(w):
    w = np.atleast_1d(w)[0]
    return min((w - 1.0) ** 2, (w + 1.0) ** 2)


def bowl(w):
    w = np.asarray(w)
    return float(w @ w)


# --- numeric-integration oracles for the 1-D conditions ------------------

def _normal_pdf(x, std):
    return np.exp(-0.5 * (x / std) ** 2) / (std * math.sqrt(2 * math.pi))


def oracle_conditions_1d(loss, center, radius, delta, grid=40001):
    """Quadrature for mu and the three condition expectations on an interval.

    Returns ((mu, cond1, cond2, cond3), sd): sd holds, in the same order, the
    per-sample standard deviations of check_basin's estimates, so each
    estimate's asymptotic standard error is sd / sqrt(samples). mu_hat is a
    mean of L; cond1 = mean |L - mu_hat| has influence function
    |L - mu| + (2 P(L < mu) - 1)(L - mu); cond2 and cond3 subtract mu_hat from
    means over separate streams, so their variances add Var L.
    """
    lo, hi = center - radius, center + radius
    w = np.linspace(lo, hi, grid)
    lw = np.array([loss(np.array([v])) for v in w])
    mu = np.trapezoid(lw, w) / (2 * radius)
    cond1 = np.trapezoid(np.abs(lw - mu), w) / (2 * radius)
    var_l = np.trapezoid((lw - mu) ** 2, w) / (2 * radius)
    below = np.trapezoid((lw < mu).astype(float), w) / (2 * radius)
    influence1 = np.abs(lw - mu) + (2 * below - 1) * (lw - mu)
    var1 = np.trapezoid((influence1 - cond1) ** 2, w) / (2 * radius)

    # f(w1, w2) is either boundary with probability 1/2 each
    nu = np.linspace(-8 * delta, 8 * delta, grid)
    pdf = _normal_pdf(nu, delta)
    l_hi = np.array([loss(np.array([hi + v])) for v in nu])
    l_lo = np.array([loss(np.array([lo + v])) for v in nu])
    cond2 = 0.5 * np.trapezoid((l_hi + l_lo) * pdf, nu) - mu
    var2 = 0.5 * np.trapezoid((l_hi**2 + l_lo**2) * pdf, nu) - (cond2 + mu) ** 2

    # half-normal outward push along the exit direction
    anu = np.linspace(0, 8 * delta, grid)
    half_pdf = 2.0 * _normal_pdf(anu, delta)
    l_out_hi = np.array([loss(np.array([hi + v])) for v in anu])
    l_out_lo = np.array([loss(np.array([lo - v])) for v in anu])
    cond3 = 0.5 * np.trapezoid((l_out_hi + l_out_lo) * half_pdf, anu) - mu
    var3 = 0.5 * np.trapezoid((l_out_hi**2 + l_out_lo**2) * half_pdf, anu) - (cond3 + mu) ** 2
    sd = tuple(math.sqrt(v) for v in (var_l, var1, var2 + var_l, var3 + var_l))
    return (mu, cond1, cond2, cond3), sd


def tent(w):
    return max(0.0, 1.0 - abs(float(np.atleast_1d(w)[0])))


@pytest.fixture(scope="module")
def double_well_report():
    """check_basin on the double well at 10,000 samples, made once per
    (center, radius, seed) and shared by the tests that read it."""
    reports = {}

    def get(center, radius, seed):
        if (center, radius, seed) not in reports:
            ball = BallSet(np.array([center]), radius)
            reports[center, radius, seed] = check_basin(
                ball, double_well, epsilon=0.05, delta=1.0, samples=10_000, rng=RngStream(seed)
            )
        return reports[center, radius, seed]

    return get


def family_z(checks, delta=1e-2):
    """Normal quantile that holds `checks` two-sided checks to a family-wise
    false-failure rate of at most delta (union bound, CLT approximation)."""
    return stats.norm.isf(delta / (2 * checks))


@pytest.mark.parametrize("radius", [0.0, -1.0])
def test_non_positive_radius_rejected(radius):
    with pytest.raises(DomainError, match="radius must be positive"):
        BallSet(np.zeros(2), radius)


class TestBoundaryPoint:
    def test_from_center(self):
        ball = BallSet(np.zeros(4), 1.0)
        w2 = np.array([0.5, 0, 0, 0])
        assert np.allclose(boundary_point(ball, np.zeros(4), w2), [1, 0, 0, 0])

    def test_off_center_ray(self):
        ball = BallSet(np.zeros(3), 1.0)
        got = boundary_point(ball, np.array([-0.5, 0, 0]), np.array([0.5, 0, 0]))
        assert np.allclose(got, [1, 0, 0])

    def test_degenerate_ray_rejected(self):
        ball = BallSet(np.zeros(2), 1.0)
        with pytest.raises(DomainError):
            boundary_point(ball, np.ones(2) * 0.1, np.ones(2) * 0.1)

    def test_ray_missing_the_ball_rejected(self):
        # from (0, 2) along the first axis: the line passes 2 from the center
        ball = BallSet(np.zeros(2), 1.0)
        with pytest.raises(DomainError, match="does not intersect"):
            boundary_point(ball, np.array([0.0, 2.0]), np.array([1.0, 2.0]))

    def test_matches_bisection_oracle(self):
        rng = RngStream(5, 1)
        for trial in range(20):
            n = 2 + trial % 5
            center = gaussian(rng, n, 1.0)
            radius = 0.5 + float(rng.uniform())
            w1 = center + gaussian(rng, n, 0.1)
            w2 = center + gaussian(rng, n, 0.1)
            if np.allclose(w1, w2):
                continue
            got = boundary_point(BallSet(center, radius), w1, w2)
            rel = np.linalg.norm(got - center) / radius
            assert 1 - 1e-6 <= rel <= 1 + 1e-6
            # independent oracle: bisection on ball membership along the ray
            d = w2 - w1
            lo, hi = 0.0, 1.0
            while np.linalg.norm(w1 + hi * d - center) <= radius:
                hi *= 2.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if np.linalg.norm(w1 + mid * d - center) <= radius:
                    lo = mid
                else:
                    hi = mid
            assert np.allclose(got, w1 + lo * d, atol=1e-6)

    def test_nudge_exits_set(self):
        ball = BallSet(np.array([1.0, 2.0]), 0.7)
        w1 = np.array([1.1, 2.1])
        w2 = np.array([0.8, 1.9])
        f = boundary_point(ball, w1, w2)
        assert np.linalg.norm(f - ball.center) <= ball.radius * (1 + 1e-9)
        outward = (f - ball.center) / np.linalg.norm(f - ball.center)
        assert np.linalg.norm(f + 1e-3 * ball.radius * outward - ball.center) > ball.radius


class TestCheckBasin:
    def test_single_well_passes_all_conditions(self, double_well_report):
        # Family false-failure rate <= 1e-2 (CLT approximation; 4 checks).
        report = double_well_report(1.0, 0.3, 7)
        want, sd = oracle_conditions_1d(double_well, 1.0, 0.3, 1.0)
        got = (report.mu_hat, report.cond1.estimate, report.cond2.estimate, report.cond3.estimate)
        bound = family_z(4) / math.sqrt(10_000)
        for estimate, expected, spread in zip(got, want, sd):
            assert abs(estimate - expected) <= bound * spread
        assert report.all_pass()

    def test_two_well_set_fails_condition1(self, double_well_report):
        # Family false-failure rate <= 1e-2 (CLT approximation; 1 check).
        report = double_well_report(0.0, 1.3, 8)
        (_, c1, _, _), sd = oracle_conditions_1d(double_well, 0.0, 1.3, 1.0)
        assert abs(report.cond1.estimate - c1) <= family_z(1) * sd[1] / math.sqrt(10_000)
        assert report.cond1.verdict == "fail"

    @pytest.mark.parametrize("center, radius, seed", [(1.0, 0.3, 7), (0.0, 1.3, 8)])
    def test_condition1_stderr_matches_influence_oracle(self, double_well_report, center, radius, seed):
        # The reported stderr over the asymptotic SE has SD ~0.012 at 10,000
        # samples (simulated), so a 10% bound fails by chance with probability
        # below 1e-15 (normal approximation).
        report = double_well_report(center, radius, seed)
        _, sd = oracle_conditions_1d(double_well, center, radius, 1.0)
        assert report.cond1.stderr == pytest.approx(sd[1] / math.sqrt(10_000), rel=0.1)

    @pytest.mark.parametrize("center, radius, seed", [(1.0, 0.3, 7), (0.0, 1.3, 8)])
    def test_condition2_3_stderr_match_oracle(self, double_well_report, center, radius, seed):
        # The reported stderrs over the asymptotic SEs have SD 0.016-0.025 at
        # 10,000 samples (4,000 simulated replicas per ball, none off by more
        # than 9%), so the 10% bounds fail by chance with probability below
        # 1e-4 per id (normal approximation).
        report = double_well_report(center, radius, seed)
        _, sd = oracle_conditions_1d(double_well, center, radius, 1.0)
        assert report.cond2.stderr == pytest.approx(sd[2] / math.sqrt(10_000), rel=0.1)
        assert report.cond3.stderr == pytest.approx(sd[3] / math.sqrt(10_000), rel=0.1)

    def test_mu_hat_variance_dominates_condition2_3_stderr(self):
        # The tent is flat near the ball's boundary, so the spread of cond2 and
        # cond3 comes almost all from mu_hat (L ~ U(0, 1) inside). The ratios
        # have SD ~0.01 at 2,000 samples, so the 10% bounds sit ~10 SD out.
        ball = BallSet(np.array([0.0]), 1.0)
        report = check_basin(ball, tent, epsilon=0.05, delta=0.05, samples=2_000, rng=RngStream(15))
        _, sd = oracle_conditions_1d(tent, 0.0, 1.0, 0.05)
        assert sd[2] > 5 * math.sqrt(sd[2] ** 2 - sd[0] ** 2)
        assert report.cond2.stderr == pytest.approx(sd[2] / math.sqrt(2_000), rel=0.1)
        assert report.cond3.stderr == pytest.approx(sd[3] / math.sqrt(2_000), rel=0.1)

    def test_constant_loss_has_no_boundary(self):
        ball = BallSet(np.zeros(3), 1.0)
        report = check_basin(ball, lambda w: 4.2, epsilon=0.01, delta=0.5, samples=200, rng=RngStream(9))
        assert report.cond1.estimate < 1e-12
        assert report.cond1.verdict == "pass"
        assert report.cond2.verdict == "fail"
        assert report.cond3.verdict == "fail"

    def test_reproducible(self):
        ball = BallSet(np.array([1.0]), 0.3)
        a = check_basin(ball, double_well, 0.05, 1.0, 300, RngStream(11, 2))
        b = check_basin(ball, double_well, 0.05, 1.0, 300, RngStream(11, 2))
        assert a.to_dict() == b.to_dict()

    def test_doubling_samples_stays_within_3_combined_se(self):
        # Family false-failure rate <= 1e-2 (CLT approximation; 3 checks).
        ball = BallSet(np.array([1.0]), 0.3)
        a = check_basin(ball, double_well, 0.05, 1.0, 2000, RngStream(12))
        b = check_basin(ball, double_well, 0.05, 1.0, 4000, RngStream(13))
        _, sd = oracle_conditions_1d(double_well, 1.0, 0.3, 1.0)
        bound = family_z(3) * math.sqrt(1 / 2000 + 1 / 4000)
        for ca, cb, spread in zip((a.cond1, a.cond2, a.cond3), (b.cond1, b.cond2, b.cond3), sd[1:]):
            assert abs(ca.estimate - cb.estimate) <= bound * spread

    def test_condition1_verdict_monotone_in_epsilon(self):
        ball = BallSet(np.array([1.0]), 0.3)
        report = check_basin(ball, double_well, 0.05, 1.0, 1000, RngStream(14))
        # assert on the stored estimate, not by re-sampling
        est, se = report.cond1.estimate, report.cond1.stderr
        passing = [eps for eps in (0.01, 0.03, 0.05, 0.1, 0.5) if est <= eps - 2 * se]
        for small, large in zip(passing, passing[1:]):
            assert small <= large
        if passing:
            assert passing[-1] == 0.5  # once passing, larger epsilon still passes

    @pytest.mark.parametrize("epsilon, delta", [(0.0, 0.1), (-0.1, 0.1), (0.1, 0.0)])
    def test_non_positive_epsilon_or_delta_rejected(self, epsilon, delta):
        with pytest.raises(DomainError, match="must be positive"):
            check_basin(BallSet(np.zeros(1), 0.5), bowl, epsilon, delta, 100, RngStream(3))

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            check_basin(BallSet(np.zeros(1), 1.0), double_well, 0.05, 1.0, 50, RngStream(1))


class TestFitBasin:
    def test_quadratic_bowl_certifies(self):
        a = np.array([0.1, 0.0])
        b = np.array([-0.1, 0.0])
        fit = fit_basin(a, b, bowl, epsilon_target=0.05, rng=RngStream(21), samples=500)
        assert fit.verdict == "in_basin"
        assert not fit.degenerate
        assert np.linalg.norm(fit.ball.center) < 0.05
        assert fit.epsilon_certified < 0.05
        assert fit.delta_certified is not None
        # analytic: boundary where ||w||^2 = mu_seg + 2*eps
        expect_r = math.sqrt(fit.mu_segment + 0.1)
        assert abs(fit.ball.radius - expect_r) < 0.05

    def test_degenerate_endpoints_flagged(self):
        a = np.array([0.05, 0.0, 0.0])
        fit = fit_basin(a, a.copy(), bowl, epsilon_target=0.05, rng=RngStream(22), samples=300)
        assert fit.degenerate
        assert fit.verdict == "in_basin"
        assert fit.ball.radius > 0

    def test_two_wells_not_in_one_basin(self):
        a = np.array([1.0])
        b = np.array([-1.0])
        fit = fit_basin(a, b, double_well, epsilon_target=0.05, rng=RngStream(23), samples=400)
        assert fit.verdict == "not_in_one_basin"

    @pytest.mark.parametrize("samples, epsilon", [(1, 0.05), (99, 0.05), (200, 0.0), (200, -0.05)])
    def test_small_budget_or_non_positive_epsilon_rejected(self, samples, epsilon):
        with pytest.raises(DomainError):
            fit_basin(np.array([0.1]), np.array([-0.1]), bowl, epsilon_target=epsilon, rng=RngStream(25), samples=samples)

    def test_endpoint_shapes_differ_rejected(self):
        with pytest.raises(DomainError, match="endpoint shapes differ"):
            fit_basin(np.array([0.1, 0.0]), np.array([-0.1]), bowl, 0.05, RngStream(25))

    def test_dict_roundtrip_serializable(self):
        import json

        a = np.array([0.1, 0.0])
        b = np.array([-0.1, 0.0])
        fit = fit_basin(a, b, bowl, epsilon_target=0.05, rng=RngStream(24), samples=200)
        text = json.dumps(fit.to_dict())
        assert "in_basin" in text


# --- outputs pinned to the values of the earlier fit_basin/check_basin ------
# Reals were recorded before the inside-ball losses moved into the draws and
# fit_basin's exits were merged; the rewrite keeps streams, draw order and the
# number of loss calls, so reports and call counts must not move. The one
# exception: degenerate endpoints now reuse the segment loss for both of them,
# which saves two calls.

def steep(w):
    return 100.0 * float(np.atleast_1d(w)[0]) ** 2


def step(w):
    return 0.0 if abs(float(np.atleast_1d(w)[0])) < 1.0 else 1.0


def terrace(w):
    """Flat core, a low shelf, a thin ridge above the fit threshold at |w| = 1,
    and a floor beyond it: no perturbation scale lifts the loss by 2 epsilon."""
    x = abs(float(np.atleast_1d(w)[0]))
    return 0.0 if x < 0.5 else 0.08 if x < 1.0 else 0.11 if x < 1.2 else 0.0


class CountingLoss:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, w):
        self.calls += 1
        return self.fn(w)


def report_summary(report):
    if report is None:
        return None
    return (report.mu_hat,) + tuple((c.estimate, c.stderr, c.verdict) for c in (report.cond1, report.cond2, report.cond3))


def assert_pinned(got, want):
    """Reals at rel 1e-12; strings, None and counts exactly."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_pinned(g, w)
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    else:
        assert got == want


FIT_CASES = {
    "endpoint_above": (np.array([0.0]), np.array([1.0]), steep),
    "no_boundary": (np.array([0.1, 0.0]), np.array([-0.1, 0.0]), lambda w: 4.2),
    "cond1_fails": (np.array([1.0]), np.array([-1.0]), double_well),
    "cond23_fail": (np.array([0.1]), np.array([-0.1]), terrace),
    "floor": (np.array([0.1]), np.array([-0.1]), step),
    "bisection": (np.array([0.1, 0.0]), np.array([-0.1, 0.0]), bowl),
    "degenerate": (np.array([0.05, 0.0, 0.0]), np.array([0.05, 0.0, 0.0]), bowl),
}

# name: (verdict, reason, radius, mu_segment, epsilon_certified, delta_certified,
#        (mu_hat, cond1, cond2, cond3) of the report, loss calls)
FIT_PINS = {
    "endpoint_above": ("not_in_one_basin", "an endpoint sits above the segment loss threshold", None, 34.166666666666664, None, None, None, 23),
    "no_boundary": ("not_in_one_basin", "no loss boundary found along the line within the walk range", None, 4.200000000000001, None, None, None, 143),
    "cond1_fails": ("not_in_one_basin", "condition 1 fails at the target epsilon (loss varies across the ball)", 1.64739990234375, 0.3190476190476191, 0.2309812684601176, None, (0.2674556433462265, (0.2309812684601176, 0.014751491349301005, "fail"), (235.70296389265678, 23.696313562607585, "pass"), (278.567135461478, 25.33887509995962, "pass")), 651),
    "cond23_fail": ("not_in_one_basin", "conditions 2-3 fail for every delta in the bracket", 0.999993896484375, 0.0, 0.039984000000000006, None, (0.0408, (0.039984000000000006, 0.00011339830633389987, "inconclusive"), (-0.0362, 0.003179867574120772, "fail"), (-0.03915, 0.0029892079756363627, "fail")), 6683),
    "floor": ("in_basin", "ok", 0.999993896484375, 0.0, 0.0, 0.000999993896484375, (0.0, (0.0, 0.0, "pass"), (0.5, 0.0354440602504168, "pass"), (0.995, 0.005000000000000002, "pass")), 1083),
    "bisection": ("in_basin", "ok", 0.32197875976562507, 0.0036666666666666675, 0.02644280843593573, 0.09164241841733459, (0.05254140725962296, (0.02644280843593573, 0.0011268212764453515, "inconclusive"), (0.06024433896705169, 0.00367935696290164, "pass"), (0.10192662337359336, 0.0036750107258737225, "pass")), 12657),
    "degenerate": ("in_basin", "ok", 0.31707763671875006, 0.0025000000000000005, 0.02532172112946448, 0.1434468982368708, (0.06296289476040998, (0.02532172112946448, 0.001197931846632251, "inconclusive"), (0.05888602159900835, 0.00412128725653461, "pass"), (0.1219447263780209, 0.005713828073900594, "pass")), 12629),
}


@pytest.mark.parametrize("name", list(FIT_CASES))
def test_fit_basin_exit_pinned(name):
    a, b, fn = FIT_CASES[name]
    loss = CountingLoss(fn)
    fit = fit_basin(a, b, loss, epsilon_target=0.05, rng=RngStream(31), samples=200)
    radius = None if fit.ball is None else fit.ball.radius
    got = (fit.verdict, fit.reason, radius, fit.mu_segment, fit.epsilon_certified, fit.delta_certified, report_summary(fit.report), loss.calls)
    assert_pinned(got, FIT_PINS[name])
    assert fit.degenerate == (name == "degenerate")
    if name == "floor":
        assert fit.delta_certified == pytest.approx(1e-3 * fit.ball.radius, rel=1e-15)
    if name == "bisection":
        assert 1e-3 * fit.ball.radius < fit.delta_certified < 10.0 * fit.ball.radius


CHECK_PINS = {
    "double_well": ((np.array([1.0]), 0.3, double_well, 1.0), (0.0271173276426925, (0.02206367617217846, 0.0013407295615041907, "pass"), (0.9096158568264421, 0.15021028547097212, "pass"), (1.0839128423273614, 0.11747732612430008, "pass"))),
    "bowl3": ((np.zeros(3), 1.0, bowl, 0.5), (0.562171191978141, (0.22093573685583523, 0.011768031849025692, "fail"), (0.764102169022246, 0.0563383976246257, "pass"), (1.3894572811582915, 0.07136500633577872, "pass"))),
    "step": ((np.array([0.0]), 1.0, step, 0.01), (0.0, (0.0, 0.0, "pass"), (0.46, 0.040830308521485996, "pass"), (1.0, 0.0, "pass"))),
}


@pytest.mark.parametrize("name", list(CHECK_PINS))
def test_check_basin_pinned(name):
    (center, radius, fn, delta), want = CHECK_PINS[name]
    loss = CountingLoss(fn)
    report = check_basin(BallSet(center, radius), loss, 0.05, delta, 150, RngStream(32))
    assert_pinned(report_summary(report), want)
    assert loss.calls == 3 * 150
    assert report.samples == 150


def test_capped_doubling_bisects_above_the_last_failing_delta(monkeypatch):
    """Doubling from 1e-3 radius fails up to 8.192 radius and is capped at
    10 radius; conditions 2-3 pass only from 9 radius, so no probe after the
    doubling may lie below the last failure, where one could be certified."""
    deltas = []

    def stub(draws, loss, epsilon, delta):
        deltas.append(delta)
        sign = 1.0 if delta >= 9.0 * draws.ball.radius else -1.0
        cond23 = ConditionEstimate(sign, 0.0, 2.0 * epsilon, ">=")
        return BasinReport(0.0, ConditionEstimate(0.0, 0.0, epsilon, "<="), cond23, cond23, epsilon, delta, 100)

    monkeypatch.setattr("basinscope.basin._report_from_draws", stub)
    fit = fit_basin(np.array([0.1, 0.0]), np.array([-0.1, 0.0]), bowl, 0.05, RngStream(21), samples=100)
    r = fit.ball.radius
    last_fail = 1e-3 * r * 2**13
    # deltas[0] is the condition-1 report at the cap; then 14 doubling probes
    assert deltas[:16] == [10.0 * r] + [1e-3 * r * 2**k for k in range(14)] + [10.0 * r]
    assert len(deltas) == 16 + 20
    assert min(deltas[16:]) > last_fail
    assert 9.0 * r <= fit.delta_certified <= 9.0 * r + (10.0 * r - last_fail) / 2**20


def test_degenerate_endpoints_reuse_the_segment_loss():
    a = np.array([0.05, 0.0, 0.0])
    calls = []
    fit_basin(a, a.copy(), lambda w: calls.append(w.copy()) or bowl(w), 0.05, RngStream(22), samples=100)
    assert sum(np.array_equal(w, a) for w in calls) == 1


@pytest.mark.parametrize("outside", [math.inf, math.nan])
def test_non_finite_boundary_probe_loss_rejected(outside):
    """A loss that is finite in the ball but not past its boundary makes the
    condition-2 and -3 means meaningless; it raises instead of reading as
    an inconclusive estimate."""
    loss = lambda w: float(w @ w) if np.linalg.norm(w) <= 1.0 + 1e-9 else outside
    with pytest.raises(DomainError, match="non-finite value on a condition-2 probe"):
        check_basin(BallSet(np.zeros(4), 1.0), loss, 0.05, 0.5, 100, RngStream(1))


def test_non_finite_segment_loss_rejected():
    """A NaN on the segment between the endpoints would make the threshold
    NaN, so no walk could cross it."""
    loss = lambda w: math.nan if abs(float(w[0])) < 0.1 else double_well(w)
    with pytest.raises(DomainError, match="non-finite value on the segment"):
        fit_basin(np.array([-1.0]), np.array([1.0]), loss, 0.05, RngStream(2), samples=100)


def test_non_finite_inside_loss_rejected_before_conditions_2_3():
    loss = CountingLoss(lambda w: math.nan)
    with pytest.raises(DomainError, match="non-finite"):
        check_basin(BallSet(np.zeros(2), 1.0), loss, 0.05, 0.5, 100, RngStream(33))
    assert loss.calls == 100
