import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basinscope.dataops import (
    DOMAIN_NAMES,
    IMAGE_SIZE,
    NUM_CLASSES,
    STAR,
    Dataset,
    DomainSpec,
    ShuffleSpec,
    apply_shuffle,
    block_shuffle,
    concat_datasets,
    domain_spec,
    generate,
    relative_accuracy_drop,
    render_image,
)
from basinscope.errors import DomainError
from basinscope.rng import RngStream, derive_stream_id


def rand_image(seed):
    rng = RngStream(seed, 1)
    return rng.uniform(16 * 16 * 3).reshape(16, 16, 3).astype(np.float32)


class TestGenerate:
    def test_bit_identical_regeneration(self):
        a = generate(domain_spec("source"), "train", 64, 5)
        b = generate(domain_spec("source"), "train", 64, 5)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_images(self):
        a = generate(domain_spec("source"), "train", 16, 5)
        b = generate(domain_spec("source"), "train", 16, 6)
        assert not np.array_equal(a.images, b.images)

    def test_splits_disjoint(self):
        a = generate(domain_spec("clipart_like"), "train", 16, 5)
        b = generate(domain_spec("clipart_like"), "test", 16, 5)
        assert not np.array_equal(a.images, b.images)

    def test_quickdraw_channels_identical(self):
        ds = generate(domain_spec("quickdraw_like"), "train", 20, 7)
        assert np.array_equal(ds.images[:, :, :, 0], ds.images[:, :, :, 1])
        assert np.array_equal(ds.images[:, :, :, 0], ds.images[:, :, :, 2])

    def test_xray_grayscale_and_low_contrast(self):
        ds = generate(domain_spec("xray_like"), "train", 20, 7)
        assert np.array_equal(ds.images[:, :, :, 0], ds.images[:, :, :, 2])
        assert ds.images.std() < 0.25

    def test_class_histogram_balanced(self):
        ds = generate(domain_spec("source"), "train", 1000, 9)
        counts = np.bincount(ds.labels, minlength=10)
        assert np.all(counts == 100)

    def test_values_in_unit_range_finite(self):
        for name in DOMAIN_NAMES:
            ds = generate(domain_spec(name), "train", 10, 3)
            assert np.all(np.isfinite(ds.images))
            assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_shape_and_labels_follow_module_constants(self):
        for name in DOMAIN_NAMES:
            ds = generate(domain_spec(name), "test", 2 * NUM_CLASSES, 4)
            assert ds.images.shape == (2 * NUM_CLASSES, IMAGE_SIZE, IMAGE_SIZE, 3)
            assert np.array_equal(np.bincount(ds.labels), np.full(NUM_CLASSES, 2))

    def test_small_n_warns(self):
        with pytest.warns(UserWarning):
            generate(domain_spec("source"), "train", 5, 1)

    def test_unknown_domain_rejected(self):
        with pytest.raises(DomainError):
            DomainSpec("cartoon")

    def test_render_parallel_equals_serial(self):
        # per-index purity: order of rendering must not matter
        serial = [render_image(domain_spec("real_like"), "train", i, 11)[0] for i in range(8)]
        shuffled_order = [render_image(domain_spec("real_like"), "train", i, 11)[0] for i in (5, 0, 7, 2, 1, 6, 3, 4)]
        lookup = dict(zip((5, 0, 7, 2, 1, 6, 3, 4), shuffled_order))
        for i in range(8):
            assert np.array_equal(serial[i], lookup[i])

    def test_source_vs_quickdraw_linearly_separable(self):
        # least-squares linear classifier on raw pixels, desk-scale floor
        n = 1000
        a = generate(domain_spec("source"), "train", n, 21)
        b = generate(domain_spec("quickdraw_like"), "train", n, 22)
        x = np.concatenate([a.images.reshape(n, -1), b.images.reshape(n, -1)]).astype(np.float64)
        x = np.hstack([x, np.ones((2 * n, 1))])
        y = np.concatenate([-np.ones(n), np.ones(n)])
        w, *_ = np.linalg.lstsq(x, y, rcond=None)
        acc = float(np.mean(np.sign(x @ w) == y))
        assert acc >= 0.95


class TestBlockShuffle:
    def test_identity_at_full_block(self):
        img = rand_image(1)
        out = block_shuffle(img, ShuffleSpec(16, 3), 0)
        assert np.array_equal(out, img)

    @pytest.mark.parametrize("block", [8, 4, 2, 1, STAR])
    def test_scalar_multiset_preserved(self, block):
        img = rand_image(2)
        out = block_shuffle(img, ShuffleSpec(block, 3), 5)
        assert np.array_equal(np.sort(out.ravel()), np.sort(img.ravel()))

    @pytest.mark.parametrize("block", [8, 4, 2, 1])
    def test_per_channel_histograms_preserved(self, block):
        img = rand_image(3)
        out = block_shuffle(img, ShuffleSpec(block, 4), 2)
        for c in range(3):
            assert np.array_equal(np.sort(out[:, :, c].ravel()), np.sort(img[:, :, c].ravel()))

    def test_star_moves_values_across_channels(self):
        img = np.zeros((16, 16, 3), dtype=np.float32)
        img[:, :, 0] = 1.0  # all ones in channel 0 only
        out = block_shuffle(img, ShuffleSpec(STAR, 5), 0)
        assert out[:, :, 1].sum() > 0 or out[:, :, 2].sum() > 0
        assert np.array_equal(np.sort(out.ravel()), np.sort(img.ravel()))

    def test_quadrant_permutation_matches_fisher_yates_replay(self):
        # image with 4 constant 8x8 quadrants; replay the permutation by hand
        img = np.zeros((16, 16, 3), dtype=np.float32)
        for q, (r, c) in enumerate([(0, 0), (0, 8), (8, 0), (8, 8)]):
            img[r : r + 8, c : c + 8, :] = q + 1
        spec = ShuffleSpec(8, 77)
        out = block_shuffle(img, spec, 12)

        twin = RngStream(77, derive_stream_id(0x53484646, 12))
        a = list(range(4))
        for i in range(3, 0, -1):
            j = twin.randint_below(i + 1)
            a[i], a[j] = a[j], a[i]
        expected = np.zeros_like(img)
        positions = [(0, 0), (0, 8), (8, 0), (8, 8)]
        for dst, src in enumerate(a):
            r, c = positions[dst]
            expected[r : r + 8, c : c + 8, :] = src + 1
        assert np.array_equal(out, expected)

    def test_same_index_same_permutation(self):
        img = rand_image(4)
        spec = ShuffleSpec(4, 9)
        assert np.array_equal(block_shuffle(img, spec, 3), block_shuffle(img, spec, 3))
        assert not np.array_equal(block_shuffle(img, spec, 3), block_shuffle(img, spec, 4))

    def test_shared_permutation_ignores_index(self):
        img = rand_image(5)
        spec = ShuffleSpec(4, 9, shared_permutation=True)
        assert np.array_equal(block_shuffle(img, spec, 3), block_shuffle(img, spec, 4))

    def test_non_dividing_block_rejected(self):
        with pytest.raises(DomainError):
            ShuffleSpec(3, 1)

    @given(st.sampled_from([16, 8, 4, 2, 1, STAR]), st.integers(0, 2**32), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_property_multiset_preserved(self, block, seed, index):
        img = rand_image(6)
        out = block_shuffle(img, ShuffleSpec(block, seed), index)
        assert np.array_equal(np.sort(out.ravel()), np.sort(img.ravel()))

    def test_apply_shuffle_epoch_stable(self):
        ds = generate(domain_spec("source"), "train", 12, 30)
        spec = ShuffleSpec(2, 31)
        a = apply_shuffle(ds, spec)
        b = apply_shuffle(ds, spec)
        assert np.array_equal(a.images, b.images)
        assert a.provenance["shuffle"]["block_size"] == 2


class TestRelativeAccuracyDrop:
    def test_basic(self):
        assert relative_accuracy_drop(0.8, 0.6) == pytest.approx(25.0)

    def test_equal_is_zero(self):
        assert relative_accuracy_drop(0.4, 0.4) == 0.0

    def test_negative_allowed(self):
        assert relative_accuracy_drop(0.5, 0.75) == pytest.approx(-50.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            relative_accuracy_drop(0.0, 0.4)

    @given(
        st.floats(0.01, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_matches_formula(self, a_pt, a_rit):
        assert relative_accuracy_drop(a_pt, a_rit) == pytest.approx(100.0 * (a_pt - a_rit) / a_pt)


def test_concat_datasets():
    a = generate(domain_spec("source"), "train", 10, 1)
    b = generate(domain_spec("clipart_like"), "train", 10, 2)
    both = concat_datasets([a, b])
    assert len(both) == 20
    assert both.provenance["combined"][1]["domain"] == "clipart_like"
    with pytest.raises(DomainError):
        concat_datasets([])
