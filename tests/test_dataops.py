import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basinscope import dataops
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


# Per-image reference renderer: the loop that batched rendering replaced,
# kept as the oracle that every batch must match bit for bit.


def oracle_point_in_polygon(px, py, verts):
    inside = np.zeros(px.shape, dtype=bool)
    x1, y1 = verts[:, 0], verts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    for k in range(len(verts)):
        crosses = (y1[k] > py) != (y2[k] > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = (x2[k] - x1[k]) * (py - y1[k]) / (y2[k] - y1[k]) + x1[k]
        inside ^= crosses & (px < xcross)
    return inside


def oracle_dist_to_edges(px, py, verts):
    p = np.stack([px, py], axis=-1)[..., None, :]
    a = verts[None, :, :]
    b = np.roll(verts, -1, axis=0)[None, :, :]
    ab = b - a
    t = np.clip(np.sum((p - a) * ab, axis=-1) / np.sum(ab * ab, axis=-1), 0.0, 1.0)
    closest = a + t[..., None] * ab
    return np.sqrt(np.sum((p - closest) ** 2, axis=-1)).min(axis=-1)


def oracle_blur_wrap(img, passes):
    out = img.astype(np.float64)
    taps = np.array([1, 4, 6, 4, 1], dtype=np.float64) / 16.0
    for _ in range(passes):
        for axis in (0, 1):
            acc = np.zeros_like(out)
            for shift, w in zip(range(-2, 3), taps):
                acc += w * np.roll(out, shift, axis=axis)
            out = acc
    return out


def oracle_render(domain, split, index, seed):
    base = dataops._TEST_INDEX_BASE if split == "test" else 0
    global_index = base + index
    label = global_index % NUM_CLASSES
    rng = RngStream(seed, derive_stream_id(dataops._STREAM_DATA, domain.index, global_index))
    style = dataops._STYLES[domain.domain_id]
    size = IMAGE_SIZE

    rot = 2 * math.pi * rng.uniform()
    scale = 0.325 * size * (1.0 + 0.10 * (2 * rng.uniform() - 1))
    cx = size / 2 + 1.5 * (2 * rng.uniform() - 1)
    cy = size / 2 + 1.5 * (2 * rng.uniform() - 1)
    verts = dataops._class_polygon(label) * scale
    c, s = math.cos(rot), math.sin(rot)
    verts = verts @ np.array([[c, s], [-s, c]]) + np.array([cx, cy])

    sub = np.array([0.25, 0.75])
    coords = (np.arange(size)[:, None] + sub[None, :]).reshape(-1)
    py, px = np.meshgrid(coords, coords, indexing="ij")
    inside = oracle_point_in_polygon(px, py, verts)
    coverage = inside.reshape(size, 2, size, 2).mean(axis=(1, 3))

    fill_rgb = dataops._PALETTE[label]
    if style["gray"]:
        fill_rgb = np.full(3, float(fill_rgb.mean()) * 0.4)

    bg = np.full((size, size, 3), style["bg"], dtype=np.float64)
    if style["noise"] > 0:
        noise = rng.uniform(size * size).reshape(size, size)
        bg += style["noise"] * (2 * noise[:, :, None] - 1)
    img = bg

    if style["outline"]:
        dist = oracle_dist_to_edges(px, py, verts)
        edge = (dist < 0.55).reshape(size, 2, size, 2).mean(axis=(1, 3))
        if domain.domain_id == "clipart_like":
            img = img * (1 - coverage[:, :, None]) + fill_rgb * coverage[:, :, None]
        img = img * (1 - edge[:, :, None]) + 0.05 * edge[:, :, None]
    else:
        img = img * (1 - coverage[:, :, None]) + fill_rgb * coverage[:, :, None]

    if style["blur"]:
        img = oracle_blur_wrap(img, style["blur"])
        img = 0.42 + 0.55 * (img - img.mean())

    if style["gray"]:
        gray = img.mean(axis=2, keepdims=True)
        img = np.repeat(gray, 3, axis=2)

    return np.clip(img, 0.0, 1.0).astype(np.float32), int(label)


class TestBatchRenderMatchesOracle:
    @pytest.mark.filterwarnings("ignore:n=.*below num_classes")
    @pytest.mark.parametrize("name", DOMAIN_NAMES)
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_generate_bit_identical_to_per_image_loop(self, name, split):
        spec = domain_spec(name)
        for seed in (0, 3, 2**40 + 17):
            expected = [oracle_render(spec, split, i, seed) for i in range(130)]
            images = np.stack([img for img, _ in expected])
            labels = np.array([label for _, label in expected])
            for n in (1, 9, 10, 37, 130):
                ds = generate(spec, split, n, seed)
                assert np.array_equal(ds.images, images[:n]), (name, split, seed, n)
                assert np.array_equal(ds.labels, labels[:n])

    @pytest.mark.parametrize("name", ["source", "xray_like"])
    def test_render_image_is_row_of_generate(self, name):
        spec = domain_spec(name)
        ds = generate(spec, "test", 23, 8)
        for i in (0, 7, 22):
            img, label = render_image(spec, "test", i, 8)
            assert np.array_equal(img, ds.images[i])
            assert label == ds.labels[i]

    def test_chunk_boundaries_do_not_change_images(self, monkeypatch):
        whole = generate(domain_spec("clipart_like"), "train", 40, 2)
        monkeypatch.setattr(dataops, "_RENDER_CHUNK", 7)
        chunked = generate(domain_spec("clipart_like"), "train", 40, 2)
        assert np.array_equal(whole.images, chunked.images)
        assert np.array_equal(whole.labels, chunked.labels)

    def test_last_train_index_matches_oracle(self):
        spec = domain_spec("real_like")
        img, label = render_image(spec, "train", 2**32 - 1, 4)
        want_img, want_label = oracle_render(spec, "train", 2**32 - 1, 4)
        assert np.array_equal(img, want_img) and label == want_label


class TestRenderArgumentsRejected:
    @pytest.mark.parametrize("split", ["val", "Train", ""])
    def test_unknown_split(self, split):
        with pytest.raises(DomainError):
            render_image(domain_spec("source"), split, 0, 1)
        with pytest.raises(DomainError):
            generate(domain_spec("source"), split, 10, 1)

    @pytest.mark.parametrize("index", [-1, 2**32, 2**64, True, 1.0])
    def test_bad_index(self, index):
        with pytest.raises(DomainError):
            render_image(domain_spec("source"), "train", index, 1)

    def test_train_index_cannot_alias_test_split(self):
        with pytest.raises(DomainError):
            render_image(domain_spec("source"), "train", 2**32, 1)
        # the image that index would have aliased stays reachable only as test 0
        assert render_image(domain_spec("source"), "test", 0, 1)[1] == (2**32) % NUM_CLASSES


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

    @pytest.mark.parametrize("block", [True, False])
    def test_bool_block_rejected(self, block):
        with pytest.raises(DomainError):
            ShuffleSpec(block, 0)

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
