import tracemalloc

import numpy as np
import pytest

from basinscope import similarity
from basinscope.dataops import Dataset, domain_spec, generate
from basinscope.errors import DomainError, SizeError
from basinscope.model import TINY4, ParamVector, forward, init_random
from basinscope.rng import RngStream, gaussian
from basinscope.similarity import (
    linear_cka_flagged,
    mistake_ratios,
    mistake_table,
    param_l2,
    similarity_report,
)
from basinscope.trainer import Checkpoint


def rand_acts(n, p, seed):
    return gaussian(RngStream(seed, 40), n * p, 1.0).reshape(n, p)


def gram_cka_oracle(x, y):
    """Independent Gram-matrix formulation: tr(Kx Ky)/sqrt(tr Kx^2 tr Ky^2)."""
    x = x - x.mean(axis=0)
    y = y - y.mean(axis=0)
    kx = x @ x.T
    ky = y @ y.T
    return float(np.trace(kx @ ky) / np.sqrt(np.trace(kx @ kx) * np.trace(ky @ ky)))


def feature_cka_oracle(x, y):
    """The feature-space form: ||Y^T X||_F^2 / (||X^T X||_F ||Y^T Y||_F)."""
    x = x - x.mean(axis=0)
    y = y - y.mean(axis=0)
    return float(np.linalg.norm(y.T @ x) ** 2 / (np.linalg.norm(x.T @ x) * np.linalg.norm(y.T @ y)))


# (n, dx, dy) on each side of the selection rule: example space when
# n*(dx + dy) < dx^2 + dy^2 + dx*dy. (45, 30, 30) sits on the tie, which
# goes to feature space.
CKA_SHAPES = {
    "example-n<d": (8, 40, 40),
    "example-n=d": (30, 30, 30),
    "example-dx!=dy": (16, 64, 3),
    "feature-tie": (45, 30, 30),
    "feature-n>d": (100, 20, 20),
    "feature-dx!=dy": (200, 64, 3),
}


class TestLinearCKA:
    def test_self_similarity_is_one(self):
        x = rand_acts(20, 5, 1)
        assert linear_cka_flagged(x, x)[0] == pytest.approx(1.0, abs=1e-10)

    def test_scale_and_orthogonal_invariance(self):
        x = rand_acts(24, 6, 2)
        q, _ = np.linalg.qr(rand_acts(6, 6, 3))
        y = 3.7 * (x @ q)
        assert linear_cka_flagged(x, y)[0] == pytest.approx(1.0, abs=1e-10)

    def test_matches_gram_oracle(self):
        x = rand_acts(20, 5, 4)
        y = rand_acts(20, 7, 5)
        assert linear_cka_flagged(x, y)[0] == pytest.approx(gram_cka_oracle(x, y), abs=1e-6)

    def test_symmetry(self):
        x = rand_acts(16, 4, 6)
        y = rand_acts(16, 9, 7)
        assert linear_cka_flagged(x, y)[0] == pytest.approx(linear_cka_flagged(y, x)[0], abs=1e-10)

    def test_range(self):
        for seed in range(5):
            x = rand_acts(15, 3, 10 + seed)
            y = rand_acts(15, 4, 20 + seed)
            v = linear_cka_flagged(x, y)[0]
            assert 0.0 <= v <= 1.0 + 1e-8

    def test_zero_input_flagged(self):
        x = np.ones((10, 3))  # centered -> all zero
        y = rand_acts(10, 3, 8)
        value, degenerate = linear_cka_flagged(x, y)
        assert value == 0.0 and degenerate

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            linear_cka_flagged(rand_acts(10, 3, 9), rand_acts(11, 3, 9))

    @pytest.mark.parametrize("side", ["x_1d", "y_3d"])
    def test_activations_not_2d_rejected(self, side):
        x, y = rand_acts(10, 3, 9), rand_acts(10, 4, 10)
        if side == "x_1d":
            x = x[:, 0]
        else:
            y = y.reshape(10, 2, 2)
        with pytest.raises(DomainError, match="must be 2-D"):
            linear_cka_flagged(x, y)

    def test_single_example_rejected(self):
        with pytest.raises(DomainError, match="at least 2 examples"):
            linear_cka_flagged(rand_acts(1, 3, 9), rand_acts(1, 3, 10))

    @pytest.mark.parametrize("case", CKA_SHAPES.items(), ids=CKA_SHAPES.keys())
    def test_matches_feature_space_oracle_on_both_paths(self, case):
        side, (n, dx, dy) = case
        assert (n * (dx + dy) < dx * dx + dy * dy + dx * dy) == side.startswith("example")
        x = rand_acts(n, dx, 60)
        y = np.tanh(x[:, :dy] + rand_acts(n, dy, 61))  # related, so CKA is far from 0
        value, degenerate = linear_cka_flagged(x, y)
        assert not degenerate
        assert value == pytest.approx(feature_cka_oracle(x, y), rel=1e-12)

    @pytest.mark.parametrize("shape", [(8, 40), (100, 4)], ids=["example", "feature"])
    @pytest.mark.parametrize("scale", [1e80, 1e-170])
    def test_far_from_unit_scale_gives_the_unit_scale_value(self, shape, scale):
        """Squaring 1e80-scale activations overflowed (0.0, False) and
        squaring 1e-170-scale ones underflowed (0.0, True)."""
        n, d = shape
        x = rand_acts(n, d, 65)
        y = np.tanh(x + rand_acts(n, d, 66))
        want, _ = linear_cka_flagged(x, y)
        for pair in ((scale * x, y), (y, scale * x), (scale * x, scale * y)):
            value, degenerate = linear_cka_flagged(*pair)
            assert not degenerate
            assert value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("shape", CKA_SHAPES.values(), ids=CKA_SHAPES.keys())
    def test_degenerate_flag_on_both_paths(self, shape):
        n, dx, dy = shape
        constant = np.full((n, dx), 2.5)  # centered -> all zero
        y = rand_acts(n, dy, 62)
        assert linear_cka_flagged(constant, y) == (0.0, True)
        assert linear_cka_flagged(y, constant) == (0.0, True)

    @pytest.mark.parametrize("shape", CKA_SHAPES.values(), ids=CKA_SHAPES.keys())
    def test_constant_columns_with_inexact_mean_flagged(self, shape):
        """Ten rows of (0.1, 0.3, 0.1) centered to a ~1e-17 residue and scored (1.6e-33, False)."""
        n, dx, dy = shape
        constant = np.tile([0.1, 0.3, 0.1], (n, dx // 3 + 1))[:, :dx]
        assert (constant - constant.mean(axis=0)).any()
        y = rand_acts(n, dy, 62)
        assert linear_cka_flagged(constant, y) == (0.0, True)
        assert linear_cka_flagged(y, constant) == (0.0, True)

    def test_constant_column_counts_as_absent(self):
        x = rand_acts(12, 4, 67)
        y = np.tanh(x + rand_acts(12, 4, 68))
        padded = np.column_stack([x, np.full(12, 0.1)])
        assert linear_cka_flagged(padded, y)[0] == pytest.approx(linear_cka_flagged(x, y)[0], rel=1e-12)

    @pytest.mark.parametrize("shape", [CKA_SHAPES["example-n<d"], CKA_SHAPES["feature-n>d"]], ids=["example", "feature"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_activation_rejected(self, shape, bad):
        n, dx, dy = shape
        x = rand_acts(n, dx, 63)
        y = rand_acts(n, dy, 64)
        x[n // 2, dx // 2] = bad
        with pytest.raises(DomainError):
            linear_cka_flagged(x, y)
        with pytest.raises(DomainError):
            linear_cka_flagged(y, x)

    def test_wide_layer_peak_far_below_one_feature_gram(self):
        """n=64 examples of d=4096 features: one d x d float64 product is
        128 MB, the example-space Grams are 32 kB each."""
        n, d = 64, 4096
        x = np.random.default_rng(65).standard_normal((n, d))
        y = np.random.default_rng(66).standard_normal((n, d))
        tracemalloc.start()
        try:
            linear_cka_flagged(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (d * d * 8) / 16


class TestParamL2:
    def test_identical_is_zero(self):
        a = init_random(TINY4, RngStream(1))
        per, total = param_l2(a, a)
        assert total == 0.0
        assert all(v == 0.0 for v in per.values())

    def test_pythagoras_over_modules(self):
        a = init_random(TINY4, RngStream(2))
        b = init_random(TINY4, RngStream(3))
        per, total = param_l2(a, b)
        assert total == pytest.approx(np.sqrt(sum(v * v for v in per.values())), abs=1e-6)
        assert total == pytest.approx(np.linalg.norm(a.values.astype(np.float64) - b.values.astype(np.float64)), rel=1e-6)

    def test_hand_example_3_4_5(self):
        index = (
            type(init_random(TINY4, RngStream(1)).index[0])("m1.weight", 0, 2, (2,)),
            type(init_random(TINY4, RngStream(1)).index[0])("m2.weight", 2, 1, (1,)),
        )
        a = ParamVector(np.array([0.0, 0.0, 0.0]), index)
        b = ParamVector(np.array([3.0, 4.0, 12.0]), index)
        per, total = param_l2(a, b)
        assert per == {"m1": 5.0, "m2": 12.0}
        assert total == 13.0

    def test_index_mismatch_rejected(self):
        from basinscope.model import ArchDescriptor

        small = ArchDescriptor((8, 8, 3), ((4, 3, 1),), (8,), 10)
        with pytest.raises(DomainError):
            param_l2(init_random(TINY4, RngStream(4)), init_random(small, RngStream(4)))


class TestMistakeTable:
    def test_paper_table3_class1_ratios(self):
        # printed counts reproduce the printed ratios to 4 decimals
        r1, r2, flagged = mistake_ratios(g1=645, g2=832, common=3597)
        assert not flagged
        assert abs(r1 - 0.1878) < 1e-4
        assert abs(r2 - 0.1520) < 1e-4

    def test_paper_table5_swapped_orientation(self):
        r1, r2, _ = mistake_ratios(g1=521, g2=2940, common=3263)
        # swapped-orientation columns carry the other convention
        r1s, r2s, _ = mistake_ratios(g1=2940, g2=521, common=3263)
        assert abs(r1s - 0.1376) < 1e-4
        assert abs(r2s - 0.4739) < 1e-4
        assert abs(r1 - 0.4739) < 1e-4 and abs(r2 - 0.1376) < 1e-4

    def test_identical_predictions(self):
        labels = np.arange(10) % 3
        preds = labels.copy()
        preds[:2] = (preds[:2] + 1) % 3  # both models make the same mistakes
        table = mistake_table(preds, preds, labels)
        row = table.row("overall")
        assert row.g1 == row.g2 == 0
        assert row.r1 == row.r2 == 0.0

    def test_all_correct_vs_all_wrong_boundary(self):
        labels = np.zeros(8, dtype=int)
        p1 = labels.copy()
        p2 = labels + 1
        row = mistake_table(p1, p2, labels).row("overall")
        assert row.g1 == 8 and row.g2 == 0 and row.common == 0
        assert row.r1 == 0.0 and row.zero_denominator
        assert row.r2 == 1.0

    def test_partition_identity(self):
        rng = RngStream(9)
        labels = np.array([rng.randint_below(5) for _ in range(200)])
        p1 = np.array([rng.randint_below(5) for _ in range(200)])
        p2 = np.array([rng.randint_below(5) for _ in range(200)])
        row = mistake_table(p1, p2, labels).row("overall")
        both_correct = int(np.sum((p1 == labels) & (p2 == labels)))
        assert row.g1 + row.g2 + row.common + both_correct == 200

    def test_per_class_rows(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        p1 = np.array([0, 1, 1, 1, 0, 2])
        p2 = np.array([0, 0, 2, 1, 2, 0])
        table = mistake_table(p1, p2, labels, group_by="class")
        assert [r.group for r in table.rows] == ["0", "1", "2"]
        assert table.row("0").g2 == 1  # second model alone got index 1 right

    def test_length_mismatch_rejected(self):
        with pytest.raises(SizeError):
            mistake_table([0, 1], [0], [0, 1])

    def test_column_predictions_rejected(self):
        """(4, 1) predictions against 4 labels once broadcast to a 4 x 4
        comparison and reported 12 common mistakes among 4 examples."""
        with pytest.raises(SizeError, match=r"\(4, 1\)"):
            mistake_table(np.zeros((4, 1), int), np.ones((4, 1), int), np.arange(4) % 2)

    @pytest.mark.filterwarnings("error")
    def test_no_examples_rejected(self):
        with pytest.raises(DomainError, match="at least one example"):
            mistake_table([], [], [])

    def test_unknown_grouping_rejected(self):
        with pytest.raises(DomainError, match="group_by must be one of overall, class"):
            mistake_table([0, 1], [0, 1], [0, 1], group_by="domain")

    def test_row_of_an_absent_group_rejected(self):
        table = mistake_table([0, 1], [0, 1], [0, 1], group_by="class")
        with pytest.raises(DomainError, match="no row for group '7'"):
            table.row("7")


class TestSimilarityReport:
    def test_report_shape_and_self_distance(self):
        ds = generate(domain_spec("source"), "test", 60, 2)
        a = Checkpoint(TINY4, init_random(TINY4, RngStream(21)), 0, {}, "", "")
        b = Checkpoint(TINY4, init_random(TINY4, RngStream(22)), 0, {}, "", "")
        report = similarity_report(a, b, ds, init_a=a, init_b=b)
        assert set(report.per_module_cka) == set(TINY4.module_names())
        assert report.total_l2 > 0
        assert all(v == 0.0 for v in report.distance_to_init_a.values())
        report_aa = similarity_report(a, a, ds)
        for value, flagged in report_aa.per_module_cka.values():
            assert flagged or value == pytest.approx(1.0, abs=1e-6)

    def test_shared_pass_activations_are_each_forwards(self):
        """Both checkpoints' activations come from one pass per evaluation
        batch (300 images: a full and a partial one) and equal each
        checkpoint's own forward, bit for bit."""
        images = generate(domain_spec("source"), "test", 300, 3).images
        vectors = [init_random(TINY4, RngStream(23 + v)) for v in range(2)]
        shared = similarity._module_activations(vectors, TINY4, images)
        for params, acts in zip(vectors, shared):
            batches = [forward(params, TINY4, images[i : i + 256])[1] for i in (0, 256)]
            assert list(acts) == TINY4.module_names()
            for m, (name, act) in enumerate(acts.items()):
                want = np.concatenate([b[m][1].reshape(len(b[m][1]), -1) for b in batches])
                assert act.dtype == np.float32 and np.array_equal(act, want), name

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_images_rejected_before_any_forward(self, n, monkeypatch):
        ds = generate(domain_spec("source"), "test", 10, 2)
        ds = Dataset(ds.images[:n], ds.labels[:n], ds.split, ds.provenance)
        a = Checkpoint(TINY4, init_random(TINY4, RngStream(21)), 0, {}, "", "")
        calls = []
        monkeypatch.setattr(similarity, "_run_layers", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(DomainError):
            similarity_report(a, a, ds)
        assert calls == []

    def test_images_past_the_cap_subsampled_by_seed(self, monkeypatch):
        # pixel (0, 0, 0) of each image holds its row number
        n = similarity.CKA_MAX_EXAMPLES + 1
        images = np.zeros((n, 16, 16, 3), dtype=np.float32)
        images[:, 0, 0, 0] = np.arange(n)
        a = Checkpoint(TINY4, init_random(TINY4, RngStream(21)), 0, {}, "", "")
        seen = []

        def rows_seen(vectors, arch, imgs):
            seen.extend(imgs[:, 0, 0, 0].astype(np.int64) for _ in vectors)
            return [{"m": imgs.reshape(len(imgs), -1)[:, :2]} for _ in vectors]

        monkeypatch.setattr(similarity, "_module_activations", rows_seen)
        for seed in (0, 0, 1):
            similarity_report(a, a, Dataset(images, np.zeros(n, dtype=np.int64), "test", {}), seed=seed)
        assert all(np.array_equal(seen[i], seen[i + 1]) for i in (0, 2, 4))  # both models, the same rows
        rows = seen[0]
        assert len(rows) == similarity.CKA_MAX_EXAMPLES and np.all(np.diff(rows) > 0)  # distinct, in dataset order
        assert np.array_equal(seen[2], rows) and not np.array_equal(seen[4], rows)
        # at the cap every image is used, whatever the seed
        seen.clear()
        similarity_report(a, a, Dataset(images[:-1], np.zeros(n - 1, dtype=np.int64), "test", {}), seed=5)
        assert np.array_equal(seen[0], np.arange(n - 1))
