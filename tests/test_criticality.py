import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from basinscope import criticality, model
from basinscope.criticality import (
    CriticalityConfig,
    _minimize,
    _polyline_point,
    criticality_grid,
    criticality_map,
    rewind_probe,
)
from basinscope.dataops import Dataset, domain_spec, generate
from basinscope.errors import DomainError, SizeError
from basinscope.model import TINY4, ArchDescriptor, ParamVector, init_random
from basinscope.rng import RngStream, gaussian, gaussian_rows
from basinscope.trainer import Checkpoint, evaluate


def scalar_quadratic(vec):
    """1-parameter synthetic network with loss (w - 1)^2."""
    w = float(np.atleast_1d(vec)[0])
    value = (w - 1.0) ** 2
    return value, value


def analytic_mu(alphas, sigmas, eps, mode, dist=1.0):
    best = math.inf
    for a in alphas:
        for s in sigmas:
            s_eff = s * abs(a) if mode == "current_norm" else s
            if (a - 1.0) ** 2 + s_eff**2 <= eps:
                best = min(best, a * a * dist * dist / (s * s))
    return best


ALPHAS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
SIGMAS = np.array([0.05, 0.1, 0.2])


def synthetic_cfg(eps=0.05, mode="raw", samples=800):
    return CriticalityConfig(
        module_name="w",
        epsilon=eps,
        alpha_grid=ALPHAS,
        sigma_grid=SIGMAS,
        noise_samples=samples,
        noise_mode=mode,
    )


def closed_form_violations(cmap, cfg, delta=1e-2):
    """Cells of a scalar_quadratic grid that break its exact law, at a
    family-wise false-failure rate of at most delta.

    With c = alpha - 1 and u ~ N(0, s_eff^2), where s_eff = sigma (raw) or
    sigma * |alpha| (current_norm), a cell's train value is the mean of
    (c + u)^2 over m = noise_samples draws, so T = m * train / s_eff^2 is
    exactly noncentral chi2(df=m, nc=m c^2 / s_eff^2) (central when c = 0).
    The checks:

    - each of the K cells with s_eff > 0 keeps T within its two-sided
      quantiles at delta / (2 * 2K);
    - a cell with s_eff = 0 (the current_norm alpha=0 row) has mean exactly
      c^2;
    - the sum of T over the alpha=1 row (c = 0, independent cells) is
      exactly chi2(3m) and stays within its two-sided quantiles at delta / 2.
      This pooled statistic carries the power against a variance bias.

    By the union bound the family false-failure rate is <= delta. Exact
    figures at delta = 1e-2 on ALPHAS x SIGMAS with m = 800 (scipy.stats
    ncx2/chi2; the alpha=1 row's joint law by quadrature of the chi2(m)
    convolution):

    - false-failure rate 0.97% for raw (K = 15) and 0.97% for current_norm
      (K = 12), against 4.0% and 3.2% for the per-cell Gaussian 3-SE bound
      this check replaces;
    - power against a +10% variance inflation 0.710 (raw) and 0.709
      (current_norm), 0.702 from the pooled row alone, against 0.50 and
      0.48 for the 3-SE bound;
    - power against a -10% variance deflation 0.79, against 0.37 and 0.36.

    Returns {label: detail}, empty when the grid fits.
    """
    m = cfg.noise_samples
    violations = {}
    cells = []
    for i, a in enumerate(cfg.alpha_grid):
        for j, s in enumerate(cfg.sigma_grid):
            s_eff = s * abs(a) if cfg.noise_mode == "current_norm" else s
            c = a - 1.0
            label = f"alpha={a:g} sigma={s:g}"
            if s_eff == 0.0:
                if cmap.train[i, j] != c * c:
                    violations[label] = f"mean {cmap.train[i, j]!r} != {c * c!r}"
            else:
                cells.append((label, m * cmap.train[i, j] / s_eff**2, m * c * c / s_eff**2))
    tail = delta / (2 * 2 * len(cells))
    pooled = []
    for label, t, nc in cells:
        law = stats.chi2(m) if nc == 0.0 else stats.ncx2(m, nc)
        lo, hi = law.ppf(tail), law.isf(tail)
        if not lo <= t <= hi:
            violations[label] = f"T={t:.6g} outside [{lo:.6g}, {hi:.6g}]"
        if nc == 0.0:
            pooled.append(t)
    row = stats.chi2(len(pooled) * m)
    lo, hi = row.ppf(delta / 4), row.isf(delta / 4)
    if not lo <= sum(pooled) <= hi:
        violations["pooled alpha=1 row"] = f"sum T={sum(pooled):.6g} outside [{lo:.6g}, {hi:.6g}]"
    return violations


class TestSyntheticClosedForm:
    @pytest.mark.parametrize("mode", ["raw", "current_norm"])
    def test_grid_matches_analytic_within_3se(self, mode):
        cfg = synthetic_cfg(mode=mode)
        cmap = criticality_grid(np.array([0.0]), np.array([1.0]), scalar_quadratic, cfg, RngStream(5))
        assert closed_form_violations(cmap, cfg) == {}

    @pytest.mark.parametrize("mode", ["raw", "current_norm"])
    def test_planted_variance_bias_is_rejected(self, mode, monkeypatch):
        """A +10% noise-variance bias (std scaled by sqrt(1.1)) fails the bound.

        At seed 5 the pooled alpha=1 row has upper p = 1.2e-8 and the
        alpha=1, sigma=0.2 cell alone is out of its bound. The bound's power
        against this bias is ~0.70, not 1, so other seeds may miss it; a -10%
        bias is not caught at this seed (pooled lower p = 0.066).
        """
        monkeypatch.setattr(
            "basinscope.criticality.gaussian_rows",
            lambda rng, rows, n, std: gaussian_rows(rng, rows, n, std * math.sqrt(1.1)),
        )
        cfg = synthetic_cfg(mode=mode)
        cmap = criticality_grid(np.array([0.0]), np.array([1.0]), scalar_quadratic, cfg, RngStream(5))
        assert set(closed_form_violations(cmap, cfg)) == {"alpha=1 sigma=0.2", "pooled alpha=1 row"}

    def test_mu_matches_analytic_grid_minimization(self):
        cfg = synthetic_cfg(eps=0.05, mode="raw")
        cmap = criticality_grid(np.array([0.0]), np.array([1.0]), scalar_quadratic, cfg, RngStream(6))
        assert cmap.mu == pytest.approx(analytic_mu(ALPHAS, SIGMAS, 0.05, "raw"))
        assert cmap.argmin == (1.0, 0.2)

    def test_mu_monotone_in_epsilon(self):
        # one map per epsilon from the same stream: the same noise, so the
        # same train grid, with more cells feasible as epsilon grows
        maps = [
            criticality_grid(np.array([0.0]), np.array([1.0]), scalar_quadratic, synthetic_cfg(eps=eps), RngStream(7))
            for eps in (0.01, 0.05, 0.1)
        ]
        assert all(np.array_equal(m.train, maps[0].train) for m in maps)
        mus = [m.mu for m in maps]
        assert mus[0] >= mus[1] >= mus[2]

    def test_mu_infinite_when_nothing_feasible(self):
        cfg = synthetic_cfg(eps=1e-6, mode="raw")
        cmap = criticality_grid(np.array([0.0]), np.array([1.0]), scalar_quadratic, cfg, RngStream(8))
        assert cmap.mu == math.inf
        assert cmap.argmin is None
        assert not cmap.feasible.any()

    def test_sigma_grid_refinement_never_increases_mu(self):
        cfg_coarse = synthetic_cfg(eps=0.05)
        cmap_c = criticality_grid(np.array([0.0]), np.array([1.0]), scalar_quadratic, cfg_coarse, RngStream(9))
        fine = CriticalityConfig(
            module_name="w",
            epsilon=0.05,
            alpha_grid=ALPHAS,
            sigma_grid=np.sort(np.concatenate([SIGMAS, [0.15]])),
            noise_samples=800,
            noise_mode="raw",
        )
        cmap_f = criticality_grid(np.array([0.0]), np.array([1.0]), scalar_quadratic, fine, RngStream(9))
        assert cmap_f.mu <= cmap_c.mu + 1e-12

    def test_untouched_module_gives_zero_mu(self):
        # theta0 == thetaE with loss below epsilon: alpha=0 cell is feasible
        def flat_loss(vec):
            return 0.001, 0.001

        cfg = synthetic_cfg(eps=0.05)
        cmap = criticality_grid(np.array([1.0]), np.array([1.0]), flat_loss, cfg, RngStream(11))
        assert cmap.mu == 0.0

    def test_optimization_path_polyline(self):
        # path through an elbow point: alpha=0.5 of the arclength sits at the elbow
        points = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([1.0, 1.0])]
        seen = {}

        def probe(vec):
            seen[tuple(np.round(vec, 6))] = True
            return 0.0, 0.0

        cfg = CriticalityConfig(
            module_name="w",
            epsilon=1.0,
            alpha_grid=np.array([0.0, 0.5, 1.0]),
            sigma_grid=np.array([1.0]),
            noise_samples=1,
            noise_mode="raw",
        )
        base_rng = RngStream(12)
        cmap = criticality_grid(points[0], points[-1], probe, cfg, base_rng, path_points=points)
        assert cmap.path_distance == pytest.approx(math.sqrt(2))
        # noise_mode raw, sigma 1: perturbed points scatter around the polyline
        # verify the alpha=0.5 anchor by replaying the noise stream
        assert len(seen) == 3

    def test_path_of_one_point_rejected(self):
        with pytest.raises(DomainError, match="at least two checkpoints"):
            criticality_grid(
                np.array([0.0]), np.array([1.0]), scalar_quadratic, synthetic_cfg(), RngStream(12), path_points=[np.array([0.0])]
            )

    @pytest.mark.parametrize(
        "theta0, theta_end, points, match",
        [
            (np.zeros(1), np.ones(3), None, r"theta_end has 3 entries, theta0 1$"),
            (np.zeros(3), np.ones(3), [np.zeros(3), np.ones(2), np.ones(3)], r"path point 1 has 2 entries, theta0 3$"),
            (np.zeros((1, 3)), np.ones(3), None, r"theta0 must be 1-D, got shape \(1, 3\)"),
            (np.zeros(0), np.zeros(0), None, r"theta0 has no entries"),
        ],
        ids=["size1_theta0_size3_end", "path_points_of_two_lengths", "2d_theta0", "empty"],
    )
    def test_vectors_of_other_shapes_rejected(self, theta0, theta_end, points, match):
        """theta0, theta_end and every path point must be 1-D vectors of one
        length, at least 1: a size-1 theta0 was broadcast against a longer
        theta_end, giving every entry one noise value, other mismatches
        raised numpy's ValueError from deep in the grid, and an empty module
        divided by zero under current_norm noise."""
        calls = []
        cfg = CriticalityConfig("w", 1.0, alpha_grid=[0.0, 1.0], sigma_grid=[0.1], noise_samples=1, noise_mode="raw")
        with pytest.raises(SizeError, match=match):
            criticality_grid(theta0, theta_end, lambda v: calls.append(v) or (0.0, 0.0), cfg, RngStream(12), path_points=points)
        assert calls == []


class TestConfig:
    @pytest.mark.parametrize("mode", ["path_norm", "bogus"])
    def test_unknown_noise_mode_rejected(self, mode):
        with pytest.raises(DomainError):
            synthetic_cfg(mode=mode)

    @pytest.mark.parametrize("samples, sigmas", [(0, SIGMAS), (1, [0.0, 0.1]), (1, [-0.1, 0.1])])
    def test_empty_noise_budget_and_non_positive_sigma_rejected(self, samples, sigmas):
        with pytest.raises(DomainError):
            CriticalityConfig("w", 0.05, alpha_grid=ALPHAS, sigma_grid=sigmas, noise_samples=samples)


    @pytest.mark.parametrize("eps", [0.0, -0.05])
    def test_non_positive_epsilon_rejected(self, eps):
        with pytest.raises(DomainError, match="epsilon must be greater than 0"):
            synthetic_cfg(eps=eps)

    def test_unknown_metric_rejected(self):
        with pytest.raises(DomainError, match="metric must be one of error, xent"):
            CriticalityConfig("w", 0.05, metric="accuracy")

    @pytest.mark.parametrize("alphas", [(-0.5, 1.0), (0.0, 1.5), (-0.5, 1.5)])
    @pytest.mark.parametrize("polyline", [False, True])
    def test_alpha_outside_the_path_rejected(self, alphas, polyline):
        """alpha is a fraction of the path on either kind of path: past its
        ends the straight path extrapolated while the polyline clamped, and
        both scored the unclamped alpha."""
        points = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([1.0, 1.0])]
        with pytest.raises(DomainError, match=r"alpha grid entry must lie in \[0, 1\]"):
            cfg = CriticalityConfig("w", 1.0, alpha_grid=alphas, sigma_grid=[1.0], noise_samples=1, noise_mode="raw")
            criticality_grid(points[0], points[-1], lambda v: (0.0, 0.0), cfg, RngStream(12), path_points=points if polyline else None)

    @pytest.mark.parametrize("polyline", [False, True])
    def test_both_path_kinds_start_and_end_alike(self, polyline):
        """The grid may hold both path ends, where the two kinds of path
        evaluate the same points (up to noise of sigma 1e-12)."""
        points = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([1.0, 1.0])]
        seen = []

        def probe(vec):
            seen.append(vec)
            return 0.0, 0.0

        cfg = CriticalityConfig("w", 1.0, alpha_grid=[0.0, 1.0], sigma_grid=[1e-12], noise_samples=1, noise_mode="raw")
        criticality_grid(points[0], points[-1], probe, cfg, RngStream(12), path_points=points if polyline else None)
        np.testing.assert_allclose(seen, [points[0], points[-1]], atol=1e-9)


class TestNetworkMap:
    def make_ckpts(self):
        init = Checkpoint(TINY4, init_random(TINY4, RngStream(20)), 0, {}, "h", "r")
        final_params = init.params.copy()
        final_params.values[:] = final_params.values * 1.5  # pretend training moved weights
        final = Checkpoint(TINY4, final_params, 5, {}, "h", "r")
        return init, final

    def test_rewind_identical_module_is_noop(self):
        init, final = self.make_ckpts()
        span = final.params.module_slice("conv2")
        final.params.values[span] = init.params.values[span]
        train_ds = generate(domain_spec("source"), "train", 40, 1)
        test_ds = generate(domain_spec("source"), "test", 20, 1)
        probe = rewind_probe(final, init, "conv2", train_ds, test_ds)
        direct = evaluate(final.params, TINY4, test_ds)
        assert probe["test_acc"] == pytest.approx(direct.accuracy)

    def test_rewind_all_modules_equals_init_model(self):
        init, final = self.make_ckpts()
        train_ds = generate(domain_spec("source"), "train", 40, 1)
        test_ds = generate(domain_spec("source"), "test", 20, 1)
        params = final.params.copy()
        for name in TINY4.module_names():
            span = params.module_slice(name)
            params.values[span] = init.params.values[span]
        hybrid = evaluate(params, TINY4, test_ds)
        direct = evaluate(init.params, TINY4, test_ds)
        assert hybrid.loss == pytest.approx(direct.loss, abs=1e-9)

    def test_network_map_runs_and_is_deterministic(self):
        init, final = self.make_ckpts()
        train_ds = generate(domain_spec("source"), "train", 30, 2)
        test_ds = generate(domain_spec("source"), "test", 20, 2)
        cfg = CriticalityConfig(
            module_name="fc1",
            epsilon=0.9,
            alpha_grid=np.array([0.0, 1.0]),
            sigma_grid=np.array([0.01, 0.1]),
            noise_samples=3,
            metric="error",
        )
        a = criticality_map(final, init, cfg, RngStream(21), train_ds, test_ds)
        b = criticality_map(final, init, cfg, RngStream(21), train_ds, test_ds)
        assert np.array_equal(a.train, b.train)
        assert a.mu == b.mu

    @pytest.mark.parametrize("n_images", [20, 35])
    def test_images_must_match_labels(self, n_images):
        init, final = self.make_ckpts()
        train_ds = generate(domain_spec("source"), "train", 30, 2)
        images = np.concatenate([train_ds.images, train_ds.images])[:n_images]
        short = Dataset(images, train_ds.labels, "train", {})
        cfg = CriticalityConfig("fc1", 0.9, alpha_grid=[0.0, 1.0], sigma_grid=[0.1], noise_samples=1)
        with pytest.raises(SizeError, match=rf"labels of shape \(30,\) do not match {n_images} images"):
            criticality_map(final, init, cfg, RngStream(21), short, generate(domain_spec("source"), "test", 20, 2))

    @pytest.mark.parametrize("module", ["conv1", "fc1"])
    @pytest.mark.parametrize("bad", ["train_label", "test_label", "train_count", "test_count"])
    def test_labels_are_checked_before_any_layer_runs(self, module, bad, monkeypatch):
        """An out-of-range label, or labels and images that differ in count,
        on either split are refused before the frozen prefix runs: with no
        call of the forward core at all, not after a pass over both splits."""
        init, final = self.make_ckpts()
        splits = {"train": generate(domain_spec("source"), "train", 30, 2), "test": generate(domain_spec("source"), "test", 20, 2)}
        split, kind = bad.split("_")
        ds = splits[split]
        if kind == "label":
            labels = ds.labels.copy()
            labels[-1] = TINY4.num_classes
            splits[split] = Dataset(ds.images, labels, split, {})
        else:
            splits[split] = Dataset(ds.images[:-1], ds.labels, split, {})
        calls, run_layers = [], model._run_layers
        counted = lambda *args, **kwargs: calls.append(args) or run_layers(*args, **kwargs)
        monkeypatch.setattr(model, "_run_layers", counted)
        monkeypatch.setattr(criticality, "_run_layers", counted)
        cfg = CriticalityConfig(module, 0.9, alpha_grid=[0.0, 1.0], sigma_grid=[0.1], noise_samples=1)
        with pytest.raises(DomainError if kind == "label" else SizeError, match="labels"):
            criticality_map(final, init, cfg, RngStream(21), splits["train"], splits["test"])
        assert calls == []

    def test_unknown_module_rejected(self):
        init, final = self.make_ckpts()
        train_ds = generate(domain_spec("source"), "train", 30, 2)
        test_ds = generate(domain_spec("source"), "test", 20, 2)
        cfg = CriticalityConfig(module_name="conv9", epsilon=0.5)
        with pytest.raises(DomainError, match="unknown module 'conv9'"):
            criticality_map(final, init, cfg, RngStream(22), train_ds, test_ds)

    def test_optimization_path_via_checkpoints(self):
        init, final = self.make_ckpts()
        mid_params = init.params.copy()
        mid_params.values[:] = mid_params.values * 1.2
        mid = Checkpoint(TINY4, mid_params, 2, {}, "h", "r")
        train_ds = generate(domain_spec("source"), "train", 30, 3)
        test_ds = generate(domain_spec("source"), "test", 20, 3)
        cfg = CriticalityConfig(
            module_name="conv1",
            epsilon=0.9,
            alpha_grid=np.array([0.0, 0.5, 1.0]),
            sigma_grid=np.array([0.05]),
            noise_samples=2,
        )
        cmap = criticality_map(final, init, cfg, RngStream(23), train_ds, test_ds, checkpoints=[mid])
        assert cmap.train.shape == (3, 1)

    def test_checkpoints_select_the_path(self):
        """checkpoints=None is the straight line from init to final; a list
        is the polyline through them, here theta0 -> -theta0 -> 1.5 theta0,
        whose arclength midpoint is -0.75 theta0; an empty list raises."""
        init, final = self.make_ckpts()
        span = init.params.module_slice("fc1")
        mid_params = final.params.copy()
        mid_params.values[span] = -init.params.values[span]
        mid = Checkpoint(TINY4, mid_params, 2, {}, "h", "r")
        train_ds = generate(domain_spec("source"), "train", 30, 3)
        test_ds = generate(domain_spec("source"), "test", 20, 3)
        cfg = CriticalityConfig(
            module_name="fc1", epsilon=10.0, alpha_grid=np.array([0.5]), sigma_grid=np.array([1e-12]),
            noise_samples=1, noise_mode="raw", metric="xent",
        )

        def loss_at(scale):
            params = ParamVector(final.params.values.astype(np.float64), final.params.index)
            params.values[span] = scale * init.params.values[span].astype(np.float64)
            return evaluate(params, TINY4, train_ds).loss

        direct = criticality_map(final, init, cfg, RngStream(25), train_ds, test_ds)
        poly = criticality_map(final, init, cfg, RngStream(25), train_ds, test_ds, checkpoints=[mid])
        assert abs(loss_at(1.25) - loss_at(-0.75)) > 1e-3
        assert direct.train[0, 0] == pytest.approx(loss_at(1.25), rel=1e-6)
        assert poly.train[0, 0] == pytest.approx(loss_at(-0.75), rel=1e-6)
        with pytest.raises(DomainError, match="requires checkpoints"):
            criticality_map(final, init, cfg, RngStream(25), train_ds, test_ds, checkpoints=[])

    def test_path_starts_at_init_by_parameters_not_epoch(self):
        """A different epoch-0 checkpoint does not replace init at alpha 0,
        and init itself passed as the first checkpoint is not a second
        vertex: both maps match the ones without it bit for bit."""
        init, final = self.make_ckpts()
        span = init.params.module_slice("fc1")
        other0_params = init.params.copy()
        other0_params.values[span] = -init.params.values[span]
        other0 = Checkpoint(TINY4, other0_params, 0, {}, "h", "r")
        mid_params = init.params.copy()
        mid_params.values[:] = mid_params.values * 1.2
        mid = Checkpoint(TINY4, mid_params, 2, {}, "h", "r")
        ds = generate(domain_spec("source"), "train", 30, 3)
        cfg = CriticalityConfig(
            module_name="fc1", epsilon=10.0, alpha_grid=np.array([0.0, 0.5, 1.0]), sigma_grid=np.array([1e-12]),
            noise_samples=1, noise_mode="raw", metric="xent",
        )
        direct = criticality_map(final, init, cfg, RngStream(27), ds, ds)
        via_other0 = criticality_map(final, init, cfg, RngStream(27), ds, ds, checkpoints=[other0])
        assert via_other0.train[0, 0] == direct.train[0, 0]
        assert via_other0.path_distance == direct.path_distance
        # other0 is still a vertex of the path: its midpoint is not the line's
        assert via_other0.train[1, 0] != direct.train[1, 0]
        via_mid = criticality_map(final, init, cfg, RngStream(27), ds, ds, checkpoints=[mid])
        via_init_mid = criticality_map(final, init, cfg, RngStream(27), ds, ds, checkpoints=[init, mid])
        assert np.array_equal(via_init_mid.train, via_mid.train)
        assert np.array_equal(via_init_mid.test, via_mid.test)

    def test_path_checkpoint_past_the_endpoint_rejected(self):
        """Checkpoints at epochs 0-3 of a run with the epoch-1 one as endpoint
        would run the path out to epoch 3 and back."""
        init, _ = self.make_ckpts()
        saved = [init]
        for epoch in (1, 2, 3):
            params = init.params.copy()
            params.values[:] = params.values * (1.0 + 0.1 * epoch)
            saved.append(Checkpoint(TINY4, params, epoch, {}, "h", "r"))
        ds = generate(domain_spec("source"), "train", 10, 3)
        cfg = CriticalityConfig(
            module_name="fc1", epsilon=0.9, alpha_grid=np.array([1.0]), sigma_grid=np.array([0.05]), noise_samples=1
        )
        criticality_map(saved[1], init, cfg, RngStream(26), ds, ds, checkpoints=saved[:2])
        with pytest.raises(DomainError, match="past the endpoint"):
            criticality_map(saved[1], init, cfg, RngStream(26), ds, ds, checkpoints=saved)

    def test_duplicate_path_epochs_rejected(self):
        init, final = self.make_ckpts()
        twin = Checkpoint(TINY4, final.params.copy(), 2, {}, "h", "r")
        mid = Checkpoint(TINY4, init.params.copy(), 2, {}, "h", "r")
        ds = generate(domain_spec("source"), "train", 10, 3)
        cfg = CriticalityConfig(
            module_name="fc1", epsilon=0.9, alpha_grid=np.array([1.0]), sigma_grid=np.array([0.05]), noise_samples=1
        )
        with pytest.raises(DomainError, match="duplicate checkpoint epochs"):
            criticality_map(final, init, cfg, RngStream(27), ds, ds, checkpoints=[init, mid, twin])

    @pytest.mark.parametrize("module", ["conv1", "classifier"])
    def test_optimization_path_checkpoint_of_another_arch_rejected(self, module):
        # a 16-wide fc1 shares conv1's slice with TINY4 but not the classifier's
        init, final = self.make_ckpts()
        wide = ArchDescriptor(TINY4.input_shape, TINY4.conv_blocks, (16,), TINY4.num_classes)
        other = Checkpoint(wide, init_random(wide, RngStream(24)), 2, {}, "h", "r")
        train_ds = generate(domain_spec("source"), "train", 30, 3)
        test_ds = generate(domain_spec("source"), "test", 20, 3)
        cfg = CriticalityConfig(
            module_name=module, epsilon=0.9, sigma_grid=np.array([0.05]), noise_samples=1
        )
        with pytest.raises(DomainError, match="architectures"):
            criticality_map(final, init, cfg, RngStream(23), train_ds, test_ds, checkpoints=[other])

    def test_params_reassigned_to_another_arch_rejected(self):
        # a checkpoint's fields can be reassigned after it is built; the
        # frozen prefix must not run a 16-wide fc1 through TINY4's plan
        init, final = self.make_ckpts()
        wide = ArchDescriptor(TINY4.input_shape, TINY4.conv_blocks, (16,), TINY4.num_classes)
        init.params, final.params = init_random(wide, RngStream(24)), init_random(wide, RngStream(25))
        ds = generate(domain_spec("source"), "train", 20, 3)
        cfg = CriticalityConfig(module_name="conv1", epsilon=0.9, sigma_grid=np.array([0.05]), noise_samples=1)
        with pytest.raises(DomainError, match="index table"):
            criticality_map(final, init, cfg, RngStream(23), ds, ds)


@pytest.fixture(scope="module")
def prefix_setup():
    """Init, mid and final TINY4 checkpoints, 300 train and 130 test images
    (the train split crosses evaluate's 256-image batch boundary)."""
    init = Checkpoint(TINY4, init_random(TINY4, RngStream(30)), 0, {}, "h", "r")
    mid_params = init.params.copy()
    mid_params.values[:] = mid_params.values * 1.2
    final_params = init.params.copy()
    final_params.values[:] = final_params.values * 1.5
    mid = Checkpoint(TINY4, mid_params, 2, {}, "h", "r")
    final = Checkpoint(TINY4, final_params, 5, {}, "h", "r")
    train_ds = generate(domain_spec("source"), "train", 300, 4)
    test_ds = generate(domain_spec("source"), "test", 130, 4)
    return init, mid, final, train_ds, test_ds


def assert_map_equals_full_network_grid(prefix_setup, module, metric, path, samples, sigmas):
    """criticality_map, which runs only the suffix from the module on a
    cached prefix, a pass of draws at a time, equals criticality_grid driven
    by one full evaluate call per draw, bit for bit."""
    init, mid, final, train_ds, test_ds = prefix_setup
    cfg = CriticalityConfig(
        module_name=module,
        epsilon=0.5,
        alpha_grid=np.array([0.5, 1.0]),
        sigma_grid=np.array(sigmas),
        noise_samples=samples,
        metric=metric,
    )
    span = final.params.module_slice(module)

    def eval_fn(vec):
        params = ParamVector(final.params.values.astype(np.float64), final.params.index)
        params.values[span] = vec
        tr = evaluate(params, TINY4, train_ds)
        te = evaluate(params, TINY4, test_ds)
        if metric == "error":
            return 1.0 - tr.accuracy, 1.0 - te.accuracy
        return tr.loss, te.loss

    points, checkpoints = None, None
    if path == "optimization":
        points = [c.params.values[span].astype(np.float64) for c in (init, mid, final)]
        checkpoints = [init, mid]
    theta0 = init.params.values[span].astype(np.float64)
    theta_end = final.params.values[span].astype(np.float64)
    want = criticality_grid(theta0, theta_end, eval_fn, cfg, RngStream(31), path_points=points)
    got = criticality_map(final, init, cfg, RngStream(31), train_ds, test_ds, checkpoints=checkpoints)
    assert np.array_equal(got.train, want.train)
    assert np.array_equal(got.test, want.test)
    assert got.mu == want.mu


class TestPrefixReuse:
    @pytest.mark.parametrize("path", ["direct", "optimization"])
    @pytest.mark.parametrize("metric", ["error", "xent"])
    @pytest.mark.parametrize("module", TINY4.module_names())
    def test_map_bit_identical_to_full_network_evaluation(self, prefix_setup, module, metric, path):
        assert_map_equals_full_network_grid(prefix_setup, module, metric, path, 1, [0.1])

    @pytest.mark.parametrize("samples", [3, 5])
    @pytest.mark.parametrize("path", ["direct", "optimization"])
    @pytest.mark.parametrize("metric", ["error", "xent"])
    @pytest.mark.parametrize("module", TINY4.module_names())
    def test_passes_across_cells_bit_identical_to_full_network_evaluation(self, prefix_setup, module, metric, path, samples):
        """Three sigmas of 3 or 5 draws make 9 or 15 draws per alpha row,
        scored in passes of 8 and 1 or 8 and 7: a pass ends inside a cell,
        and each alpha row starts a new pass."""
        assert_map_equals_full_network_grid(prefix_setup, module, metric, path, samples, [0.01, 0.1, 1.0])

    @pytest.mark.parametrize("module", ["conv1", "classifier"])
    def test_passes_hold_at_most_eight_draws_of_one_alpha_row(self, prefix_setup, module, monkeypatch):
        """Each alpha row's 15 draws go to the forward core in ceil(15 / 8) =
        2 passes per cached batch (two train batches, one test batch), none
        holding more than 8 draws or draws of two rows. A draw's row is the
        path point nearest its module, noise being at most 3% of its norm
        and the points 25% of theta0's norm apart."""
        init, _, final, train_ds, test_ds = prefix_setup
        span = final.params.module_slice(module)
        theta0 = init.params.values[span].astype(np.float64)
        theta_end = final.params.values[span].astype(np.float64)
        cfg = CriticalityConfig(module, 0.5, alpha_grid=[0.0, 0.5, 1.0], sigma_grid=[0.01, 0.02, 0.03], noise_samples=5)
        anchors = [(1.0 - a) * theta0 + a * theta_end for a in cfg.alpha_grid]
        calls, run_layers = [], criticality._run_layers

        def spy(vectors, *args, **kwargs):
            calls.append([np.argmin([np.linalg.norm(v.values[span] - a) for a in anchors]) for v in vectors])
            return run_layers(vectors, *args, **kwargs)

        monkeypatch.setattr(criticality, "_run_layers", spy)
        criticality_map(final, init, cfg, RngStream(32), train_ds, test_ds)
        assert max(len(rows) for rows in calls) <= 8
        assert all(len(set(rows)) == 1 for rows in calls)
        assert Counter(rows[0] for rows in calls) == {0: 2 * 3, 1: 2 * 3, 2: 2 * 3}
        assert sum(len(rows) for rows in calls) == 3 * 15 * 3


# --- the vectorized grid minimum and polyline lookup against their loops ---

def minimize_loop(alphas, sigmas, train_grid, epsilon, path_distance):
    """The cell-by-cell minimum the vectorized _minimize replaced."""
    best = math.inf
    arg = None
    for i, a in enumerate(alphas):
        for j, s in enumerate(sigmas):
            if train_grid[i, j] <= epsilon:
                value = (a * a) * (path_distance * path_distance) / (s * s)
                if value < best:
                    best = value
                    arg = (float(a), float(s))
    return best, arg


def polyline_point_loop(points, alpha):
    """The segment walk the cumsum/searchsorted _polyline_point replaced."""
    lengths = [float(np.linalg.norm(b - a)) for a, b in zip(points, points[1:])]
    total = sum(lengths)
    if total == 0.0:
        return points[0].copy()
    target = alpha * total
    walked = 0.0
    for seg_start, seg_len in zip(range(len(lengths)), lengths):
        if walked + seg_len >= target or seg_start == len(lengths) - 1:
            t = 0.0 if seg_len == 0 else (target - walked) / seg_len
            t = min(max(t, 0.0), 1.0)
            return points[seg_start] + t * (points[seg_start + 1] - points[seg_start])
        walked += seg_len
    return points[-1].copy()


class TestVectorizedHelpers:
    def test_minimize_matches_loop_on_random_grids(self):
        rng = RngStream(40)
        for trial in range(1000):
            na, ns = 1 + trial % 6, 1 + (trial // 6) % 5
            if trial % 4 == 0:  # coarse grids: equal values in several cells
                alphas = np.unique(np.round(rng.uniform(na), 1))
                sigmas = np.unique(np.round(rng.uniform(ns), 1)) + 0.1
            else:
                alphas, sigmas = np.sort(rng.uniform(na)), np.sort(rng.uniform(ns)) + 1e-3
            grid = np.round(rng.uniform(alphas.size * sigmas.size), 1).reshape(alphas.size, sigmas.size)
            eps = float(rng.uniform(1)[0])
            if trial % 3 == 0:  # cells exactly at epsilon are feasible
                eps = float(grid.flat[trial % grid.size])
            if trial % 10 == 0:  # all infeasible
                eps = -1.0
            dist = 0.5 + float(rng.uniform(1)[0])
            got, want = _minimize(alphas, sigmas, grid, eps, dist), minimize_loop(alphas, sigmas, grid, eps, dist)
            assert got == want and type(got[1]) is type(want[1])

    def test_minimize_ties_pick_first_row_major_cell(self):
        # values [[1, 0.25], [4, 1]]; with (0.5, 1) infeasible, (0.5, 0.5) and (1, 1) tie at 1
        alphas, sigmas = np.array([0.5, 1.0]), np.array([0.5, 1.0])
        grid = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert _minimize(alphas, sigmas, grid, 0.1, 1.0) == (1.0, (0.5, 0.5)) == minimize_loop(alphas, sigmas, grid, 0.1, 1.0)
        grid[0, 0] = 1.0
        assert _minimize(alphas, sigmas, grid, 0.1, 1.0) == (1.0, (1.0, 1.0)) == minimize_loop(alphas, sigmas, grid, 0.1, 1.0)
        assert _minimize(alphas, sigmas, grid, -1.0, 1.0) == (math.inf, None)

    def test_polyline_point_matches_loop(self):
        rng = RngStream(41)
        alphas = [0.0, 1.0] + [float(a) for a in rng.uniform(8)]
        for trial in range(1000):
            k = 2 + trial % 5
            points = [gaussian(rng, 1 + trial % 4, 1.0) for _ in range(k)]
            if trial % 3 == 0:  # a zero-length segment
                j = trial % (k - 1)
                points[j + 1] = points[j].copy()
            if trial % 50 == 0:  # every segment zero-length
                points = [points[0].copy() for _ in range(k)]
            for alpha in alphas:
                got, want = _polyline_point(points, alpha), polyline_point_loop(points, alpha)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_polyline_point_at_segment_ends(self):
        # lengths 1, 0, 1: alpha 0.5 ends the first segment, which takes it
        points = [np.array([0.0]), np.array([1.0]), np.array([1.0]), np.array([2.0])]
        for alpha, want in ((0.0, 0.0), (0.25, 0.5), (0.5, 1.0), (1.0, 2.0)):
            assert _polyline_point(points, alpha)[0] == want == polyline_point_loop(points, alpha)[0]
