import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basinscope import dataops, persistence
from basinscope.dataops import (
    DOMAIN_NAMES,
    IMAGE_SIZE,
    NUM_CLASSES,
    STAR,
    Dataset,
    DomainSpec,
    ShuffleSpec,
    apply_shuffle,
    domain_spec,
    generate,
    relative_accuracy_drop,
)
from basinscope.errors import DomainError
from basinscope.rng import RngStream, derive_stream_id


def rand_image(seed):
    rng = RngStream(seed, 1)
    return rng.uniform(16 * 16 * 3).reshape(16, 16, 3).astype(np.float32)


def shuffle_one(img, spec, index):
    """One image shuffled as ``apply_shuffle`` shuffles image ``index``."""
    key = 0 if spec.shared_permutation else index
    return dataops._shuffle_batch(img[None], spec, [derive_stream_id(dataops._STREAM_SHUFFLE, key)])[0]


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

    rot, scale, cx, cy = rng.uniform(4).tolist()
    rot = 2 * math.pi * rot
    scale = 0.325 * size * (1.0 + 0.10 * (2 * scale - 1))
    cx = size / 2 + 1.5 * (2 * cx - 1)
    cy = size / 2 + 1.5 * (2 * cy - 1)
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

    @pytest.mark.filterwarnings("ignore:n=.*below num_classes")
    @pytest.mark.parametrize("name", ["source", "xray_like"])
    def test_batch_of_one_is_row_of_generate(self, name):
        spec = domain_spec(name)
        ds = generate(spec, "test", 23, 8)
        one = generate(spec, "test", 1, 8)
        assert np.array_equal(one.images[0], ds.images[0]) and one.labels[0] == ds.labels[0]

    # at 15 images the last chunk of 7 holds one image, whose lone stream id runs the lockstep
    @pytest.mark.parametrize("name, n", [("clipart_like", 40), ("real_like", 15)])
    def test_chunk_boundaries_do_not_change_images(self, monkeypatch, name, n):
        whole = generate(domain_spec(name), "train", n, 2)
        monkeypatch.setattr(dataops, "_RENDER_CHUNK", 7)
        chunked = generate(domain_spec(name), "train", n, 2)
        assert np.array_equal(whole.images, chunked.images)
        assert np.array_equal(whole.labels, chunked.labels)


def _check_raster(polygons):
    """Batched inside test and outline mask of equal-size polygons against the per-image oracles."""
    samples = dataops._SAMPLES
    py, px = np.meshgrid(samples, samples, indexing="ij")
    verts = np.stack([np.asarray(p, dtype=np.float64) for p in polygons])
    inside = dataops._inside_polygons(samples, samples, verts[:, :, 0], verts[:, :, 1])
    outline = dataops._outline_mask(samples, samples, verts[:, :, 0], verts[:, :, 1])
    for i, v in enumerate(verts):
        assert np.array_equal(inside[i], oracle_point_in_polygon(px, py, v)), i
        assert np.array_equal(outline[i], oracle_dist_to_edges(px, py, v) < 0.55), i


class TestRasterMatchesOracle:
    """Row-crossing fill and windowed outline against the full-grid oracles on awkward geometry."""

    def test_vertices_on_sample_rows_and_columns(self):
        _check_raster(
            [
                [(3.1, 2.25), (10.7, 5.75), (7.3, 12.25), (2.0, 8.75)],
                [(2.25, 2.25), (13.75, 7.25), (8.25, 14.75), (4.75, 7.25)],
                [(8.25, 0.25), (15.75, 8.25), (8.25, 15.75), (0.25, 8.25)],
            ]
        )

    def test_horizontal_and_vertical_edges(self):
        _check_raster(
            [
                [(2.25, 3.25), (12.75, 3.25), (12.75, 9.0), (2.25, 9.0)],
                [(1.1, 4.0), (14.9, 4.0), (14.9, 4.6), (1.1, 4.6)],
                [(5.0, 0.75), (5.0, 15.25), (5.5, 15.25), (5.5, 0.75)],
            ]
        )

    def test_crossings_exactly_at_sample_x(self):
        # rows y = 0.25 + 0.5j cut these edges at x = 0.25 + 0.5i exactly
        _check_raster([[(1.25, 0.25), (9.25, 8.25), (1.25, 12.25)], [(3.25, 1.25), (11.25, 5.25), (3.25, 13.25)]])

    def test_windows_clipped_by_the_grid_border(self):
        _check_raster(
            [
                [(-3.0, -2.0), (5.0, 1.0), (20.0, 18.0), (-1.0, 30.0)],
                [(-0.4, 7.0), (0.3, -0.2), (15.9, 0.1), (16.4, 15.8)],
                [(-9.0, -9.0), (-1.0, -8.0), (-2.0, -1.0), (-8.0, -2.0)],
                [(15.5, 15.5), (25.0, 16.0), (24.0, 24.0), (16.0, 25.0)],
            ]
        )

    @pytest.mark.parametrize("label", range(NUM_CLASSES))
    def test_class_polygons_at_extreme_scale_and_offset(self, label):
        # vertices built as the per-image renderer builds them, at u = 0 and u -> 1
        top = 1 - 2.0**-53
        polygons = []
        for u_rot in (0.0, 0.125, 0.3, top):
            for u_scale, u_x, u_y in [(0.0, 0.0, 0.0), (top, top, top), (0.0, top, 0.0), (top, 0.0, top)]:
                scale = 0.325 * IMAGE_SIZE * (1.0 + 0.10 * (2 * u_scale - 1))
                offset = np.array([IMAGE_SIZE / 2 + 1.5 * (2 * u_x - 1), IMAGE_SIZE / 2 + 1.5 * (2 * u_y - 1)])
                c, s = math.cos(2 * math.pi * u_rot), math.sin(2 * math.pi * u_rot)
                polygons.append(dataops._class_polygon(label) * scale @ np.array([[c, s], [-s, c]]) + offset)
        _check_raster(polygons)

    # coordinates on a 1/64 lattice, which holds every sample coordinate, or
    # floats kept away from 0 so that no edge's squared length underflows
    _coordinate = st.one_of(
        st.integers(-3 * 64, 19 * 64).map(lambda k: k / 64), st.floats(-3.0, 19.0).filter(lambda x: abs(x) > 1e-9)
    )

    @given(st.lists(st.tuples(_coordinate, _coordinate), min_size=3, max_size=9, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_property_random_polygons(self, vertices):
        # distinct vertices, so no edge has zero length
        _check_raster([vertices, vertices[::-1]])


class TestRenderArgumentsRejected:
    @pytest.mark.parametrize("split", ["val", "Train", ""])
    def test_unknown_split(self, split):
        with pytest.raises(DomainError):
            generate(domain_spec("source"), split, 10, 1)


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

    def test_numpy_integer_n_and_seed_stored_as_int(self, tmp_path):
        ds = generate(domain_spec("source"), "train", np.int64(12), np.uint32(3))
        assert type(ds.provenance["n"]) is int and type(ds.provenance["seed"]) is int
        assert np.array_equal(ds.images, generate(domain_spec("source"), "train", 12, 3).images)
        persistence.save_dataset(ds, tmp_path / "ds.llds")
        assert persistence.load_dataset(tmp_path / "ds.llds").provenance == ds.provenance

    @pytest.mark.parametrize("args", [("train", 2.5), ("train", True), ("val", 5)])
    def test_bad_n_or_split_raises_before_warning(self, args):
        split, n = args
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                generate(domain_spec("source"), split, n, 1)

    def test_unknown_domain_rejected(self):
        with pytest.raises(DomainError):
            DomainSpec("cartoon")

    @pytest.mark.parametrize("domain", ["source", 0, None])
    def test_domain_name_in_place_of_spec_rejected(self, domain):
        """A name once reached the stream derivation, which named a bound
        str method; other values raised AttributeError."""
        with pytest.raises(DomainError, match=re.escape("must be a DomainSpec, such as domain_spec(name)")):
            generate(domain, "train", 10, 0)

    @pytest.mark.filterwarnings("ignore:n=.*below num_classes")
    def test_render_parallel_equals_serial(self):
        # per-index purity: an image does not depend on how many are rendered with it
        full = generate(domain_spec("real_like"), "train", 8, 11).images
        for n in (1, 3, 5, 7):
            assert np.array_equal(generate(domain_spec("real_like"), "train", n, 11).images, full[:n])

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
        out = shuffle_one(img, ShuffleSpec(16, 3), 0)
        assert np.array_equal(out, img)

    @pytest.mark.parametrize("block", [8, 4, 2, 1, STAR])
    def test_scalar_multiset_preserved(self, block):
        img = rand_image(2)
        out = shuffle_one(img, ShuffleSpec(block, 3), 5)
        assert np.array_equal(np.sort(out.ravel()), np.sort(img.ravel()))

    @pytest.mark.parametrize("block", [8, 4, 2, 1])
    def test_per_channel_histograms_preserved(self, block):
        img = rand_image(3)
        out = shuffle_one(img, ShuffleSpec(block, 4), 2)
        for c in range(3):
            assert np.array_equal(np.sort(out[:, :, c].ravel()), np.sort(img[:, :, c].ravel()))

    def test_star_moves_values_across_channels(self):
        img = np.zeros((16, 16, 3), dtype=np.float32)
        img[:, :, 0] = 1.0  # all ones in channel 0 only
        out = shuffle_one(img, ShuffleSpec(STAR, 5), 0)
        assert out[:, :, 1].sum() > 0 or out[:, :, 2].sum() > 0
        assert np.array_equal(np.sort(out.ravel()), np.sort(img.ravel()))

    def test_quadrant_permutation_matches_fisher_yates_replay(self):
        # image with 4 constant 8x8 quadrants; replay the permutation by hand
        img = np.zeros((16, 16, 3), dtype=np.float32)
        for q, (r, c) in enumerate([(0, 0), (0, 8), (8, 0), (8, 8)]):
            img[r : r + 8, c : c + 8, :] = q + 1
        spec = ShuffleSpec(8, 77)
        out = shuffle_one(img, spec, 12)

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
        assert np.array_equal(shuffle_one(img, spec, 3), shuffle_one(img, spec, 3))
        assert not np.array_equal(shuffle_one(img, spec, 3), shuffle_one(img, spec, 4))

    def test_shared_permutation_ignores_index(self):
        img = rand_image(5)
        spec = ShuffleSpec(4, 9, shared_permutation=True)
        assert np.array_equal(shuffle_one(img, spec, 3), shuffle_one(img, spec, 4))

    def test_non_dividing_block_rejected(self):
        with pytest.raises(DomainError):
            ShuffleSpec(3, 1)

    @pytest.mark.parametrize("block", [True, False])
    def test_bool_block_rejected(self, block):
        with pytest.raises(DomainError):
            ShuffleSpec(block, 0)

    def test_numpy_integer_block_sweep(self):
        ds = generate(domain_spec("source"), "train", 12, 30)
        for block in np.array([1, 2, 4, 8, 16]):
            spec = ShuffleSpec(block, np.int64(7))
            assert type(spec.block_size) is int and type(spec.seed) is int
            want = apply_shuffle(ds, ShuffleSpec(int(block), 7))
            assert np.array_equal(apply_shuffle(ds, spec).images, want.images)
        with pytest.raises(DomainError):
            ShuffleSpec(np.int64(3), 0)

    @given(st.sampled_from([16, 8, 4, 2, 1, STAR]), st.integers(0, 2**32), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_property_multiset_preserved(self, block, seed, index):
        img = rand_image(6)
        out = shuffle_one(img, ShuffleSpec(block, seed), index)
        assert np.array_equal(np.sort(out.ravel()), np.sort(img.ravel()))

    def test_apply_shuffle_epoch_stable(self):
        ds = generate(domain_spec("source"), "train", 12, 30)
        spec = ShuffleSpec(2, 31)
        a = apply_shuffle(ds, spec)
        b = apply_shuffle(ds, spec)
        assert np.array_equal(a.images, b.images)
        assert a.provenance["shuffle"]["block_size"] == 2

    @staticmethod
    def _per_image(img, spec, index):
        """One image shuffled with its own stream's permutation, block by block."""
        rng = RngStream(spec.seed, derive_stream_id(0x53484646, 0 if spec.shared_permutation else index))
        if spec.block_size == STAR:
            return img.reshape(-1)[rng.permutation(img.size)].reshape(img.shape)
        b = spec.block_size
        nb = IMAGE_SIZE // b
        perm = rng.permutation(nb * nb)
        out = np.empty_like(img)
        for dst, src in enumerate(perm):
            (dr, dc), (sr, sc) = divmod(dst, nb), divmod(int(src), nb)
            out[dr * b : (dr + 1) * b, dc * b : (dc + 1) * b] = img[sr * b : (sr + 1) * b, sc * b : (sc + 1) * b]
        return out

    @pytest.mark.parametrize("block", [1, 2, 4, 8, 16, STAR])
    @pytest.mark.parametrize("shared", [False, True])
    def test_apply_shuffle_equals_per_image_shuffles(self, block, shared):
        ds = generate(domain_spec("real_like"), "train", 23, 5)
        spec = ShuffleSpec(block, 2**64 - 9, shared_permutation=shared)
        out = apply_shuffle(ds, spec)
        assert out.images.dtype == ds.images.dtype
        for i, img in enumerate(ds.images):
            want = self._per_image(img, spec, i)
            assert np.array_equal(out.images[i], want), i
            assert np.array_equal(shuffle_one(img, spec, i), want), i

    @pytest.mark.parametrize("block", [4, 16, STAR])
    @pytest.mark.parametrize("shared", [False, True])
    def test_apply_shuffle_empty_dataset_any_block(self, block, shared):
        empty = Dataset(np.zeros((0, IMAGE_SIZE, IMAGE_SIZE, 3), dtype=np.float32), np.zeros(0, dtype=np.int64), "train", {})
        out = apply_shuffle(empty, ShuffleSpec(block, 31, shared_permutation=shared))
        assert out.images.shape == (0, IMAGE_SIZE, IMAGE_SIZE, 3) and out.images.dtype == np.float32

    def test_apply_shuffle_rejects_wrong_image_shape(self):
        bad = Dataset(np.zeros((2, 8, 8, 3), dtype=np.float32), np.zeros(2, dtype=np.int64), "train", {})
        with pytest.raises(DomainError):
            apply_shuffle(bad, ShuffleSpec(4, 1))

    def test_apply_shuffle_empty_dataset(self):
        ds = generate(domain_spec("source"), "train", 10, 30)
        empty = Dataset(ds.images[:0], ds.labels[:0], "train", dict(ds.provenance))
        out = apply_shuffle(empty, ShuffleSpec(4, 31))
        assert out.images.shape == (0, IMAGE_SIZE, IMAGE_SIZE, 3)
        assert out.images.dtype == ds.images.dtype
        assert len(out) == 0 and out.split == "train"
        assert out.provenance["shuffle"]["block_size"] == 4


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
