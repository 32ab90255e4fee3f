"""Synthetic multi-domain image tasks and block-shuffle corruptions.

Every image is a pure function of (domain, seed, split, index): class k draws
a polygon with k+3 vertices and a class-fixed radius pattern, rendered in the
domain's style. Five styles stand in for progressively less photo-like
domains, from textured color fills down to blurred low-contrast grayscale.

Rendering works on whole batches. Each image's own (seed, stream-id) stream
is drawn with ``lane_uniforms``, all streams in lockstep. The images of one
label share a vertex count, so each label group is rasterised together with
array ops over a leading batch axis, one polygon edge at a time. Only the
rotation (``math.cos``/``math.sin`` and a 2x2 product) stays per image.
Every array op repeats the per-image arithmetic element for element, so a
batch renders bit-identically to one image at a time: ``render_image`` is a
batch of one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rng import RngStream, derive_stream_id, lane_uniforms

DOMAIN_NAMES = ("source", "real_like", "clipart_like", "quickdraw_like", "xray_like")
STAR = "*"
IMAGE_SIZE = 16
NUM_CLASSES = 10

_STREAM_DATA = 0x44415441  # "DATA"
_STREAM_SHUFFLE = 0x53484646  # "SHFF"
_TEST_INDEX_BASE = 1 << 32
_SPLIT_BASE = {"train": 0, "test": _TEST_INDEX_BASE}
_RENDER_CHUNK = 1024  # images per lane draw; bounds the temporaries for any n

# Ten visually distinct fill colors (RGB in [0,1]).
_PALETTE = np.array(
    [
        (0.85, 0.20, 0.20),
        (0.20, 0.65, 0.25),
        (0.20, 0.35, 0.85),
        (0.90, 0.75, 0.15),
        (0.65, 0.25, 0.75),
        (0.15, 0.75, 0.75),
        (0.90, 0.45, 0.10),
        (0.55, 0.55, 0.55),
        (0.75, 0.20, 0.55),
        (0.30, 0.50, 0.10),
    ]
)

# Per-domain render constants.
_STYLES = {
    "source": {"noise": 0.22, "bg": 0.45, "outline": False, "gray": False, "blur": 0},
    "real_like": {"noise": 0.16, "bg": 0.55, "outline": False, "gray": False, "blur": 0},
    "clipart_like": {"noise": 0.0, "bg": 0.92, "outline": True, "gray": False, "blur": 0},
    "quickdraw_like": {"noise": 0.0, "bg": 1.0, "outline": True, "gray": True, "blur": 0},
    "xray_like": {"noise": 0.04, "bg": 0.35, "outline": False, "gray": True, "blur": 2},
}


@dataclass(frozen=True)
class DomainSpec:
    domain_id: str

    def __post_init__(self):
        if self.domain_id not in DOMAIN_NAMES:
            raise DomainError(f"unknown domain {self.domain_id!r}")

    @property
    def index(self) -> int:
        return DOMAIN_NAMES.index(self.domain_id)


@dataclass(frozen=True)
class ShuffleSpec:
    """Block-shuffle corruption; block_size 16 is the identity, STAR permutes
    all scalars across channels."""

    block_size: int | str
    seed: int
    shared_permutation: bool = False

    def __post_init__(self):
        if self.block_size != STAR:
            if isinstance(self.block_size, bool) or not isinstance(self.block_size, int) or self.block_size < 1:
                raise DomainError(f"bad block size {self.block_size!r}")
            if IMAGE_SIZE % self.block_size:
                raise DomainError(f"block size {self.block_size} must divide {IMAGE_SIZE}")


@dataclass
class Dataset:
    images: np.ndarray  # (N, 16, 16, 3) float32
    labels: np.ndarray  # (N,) int
    split: str
    provenance: dict

    def __len__(self) -> int:
        return len(self.labels)


def _class_polygon(label: int) -> np.ndarray:
    """Unit-scale vertex pattern for a class: k+3 vertices, fixed radii."""
    m = label + 3
    j = np.arange(m)
    angles = 2 * math.pi * j / m
    radii = 0.72 + 0.28 * np.cos(2 * math.pi * ((label + 2) * j % m) / m)
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)


def _inside_polygons(px: np.ndarray, py: np.ndarray, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """Even-odd ray casting of a (1, 1, W) x (1, H, 1) grid against G polygons.

    ``vx``, ``vy`` are (G, m) vertex coordinates; returns (G, H, W) bools.
    Crossings depend only on the row, so they are found per row.
    """
    inside = np.zeros((len(vx), py.size, px.size), dtype=bool)
    x1, y1 = vx[:, :, None, None], vy[:, :, None, None]
    x2, y2 = np.roll(x1, -1, axis=1), np.roll(y1, -1, axis=1)
    for k in range(vx.shape[1]):
        crosses = (y1[:, k] > py) != (y2[:, k] > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = (x2[:, k] - x1[:, k]) * (py - y1[:, k]) / (y2[:, k] - y1[:, k]) + x1[:, k]
        inside ^= crosses & (px < xcross)
    return inside


def _dist_to_edges(px: np.ndarray, py: np.ndarray, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """(G, H, W) distance from each grid point to the nearest polygon edge.

    The min is taken over squared distances before one sqrt, which is exact
    because sqrt is correctly rounded and monotone. Temporaries are reused
    in place; each op is the same IEEE operation as in the textbook form.
    """
    ax, ay = vx[:, :, None, None], vy[:, :, None, None]
    abx, aby = np.roll(ax, -1, axis=1) - ax, np.roll(ay, -1, axis=1) - ay
    best = None
    for k in range(vx.shape[1]):
        # t = clip(((p - a) . ab) / (ab . ab), 0, 1)
        t = (px - ax[:, k]) * abx[:, k] + (py - ay[:, k]) * aby[:, k]
        t /= abx[:, k] * abx[:, k] + aby[:, k] * aby[:, k]
        np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
        # |p - (a + t ab)|^2, x part in ex, y part in t
        ex = t * abx[:, k]
        ex += ax[:, k]
        np.subtract(px, ex, out=ex)
        ex *= ex
        t *= aby[:, k]
        t += ay[:, k]
        np.subtract(py, t, out=t)
        t *= t
        ex += t
        best = ex if best is None else np.minimum(best, ex, out=best)
    return np.sqrt(best)


def _blur_wrap(img: np.ndarray, passes: int) -> np.ndarray:
    """Separable binomial [1,4,6,4,1]/16 blur with circular wrap over axes 1, 2."""
    out = img.astype(np.float64)
    taps = np.array([1, 4, 6, 4, 1], dtype=np.float64) / 16.0
    for _ in range(passes):
        for axis in (1, 2):
            acc = np.zeros_like(out)
            for shift, w in zip(range(-2, 3), taps):
                acc += w * np.roll(out, shift, axis=axis)
            out = acc
    return out


def _pixel_means(sub: np.ndarray) -> np.ndarray:
    """(G, 2H, 2W) supersampled bools -> (G, H, W) coverage fractions."""
    g, h, w = sub.shape
    return sub.reshape(g, h // 2, 2, w // 2, 2).mean(axis=(2, 4))


def _render_group(domain_id: str, label: int, u: np.ndarray) -> np.ndarray:
    """(G, 16, 16, 3) float32 images of one label from their (G, n_draws) uniforms."""
    style = _STYLES[domain_id]
    size = IMAGE_SIZE
    g = len(u)

    rot = 2 * math.pi * u[:, 0]
    scale = 0.325 * size * (1.0 + 0.10 * (2 * u[:, 1] - 1))
    cx = size / 2 + 1.5 * (2 * u[:, 2] - 1)
    cy = size / 2 + 1.5 * (2 * u[:, 3] - 1)
    polygon = _class_polygon(label)
    verts = np.empty((g, len(polygon), 2))
    for i in range(g):
        c, s = math.cos(rot[i]), math.sin(rot[i])
        verts[i] = (polygon * scale[i]) @ np.array([[c, s], [-s, c]]) + np.array([cx[i], cy[i]])
    vx, vy = verts[:, :, 0], verts[:, :, 1]

    # 2x2 supersampled coverage and edge distance
    sub = np.array([0.25, 0.75])
    coords = (np.arange(size)[:, None] + sub[None, :]).reshape(-1)
    px, py = coords[None, None, :], coords[None, :, None]
    coverage = _pixel_means(_inside_polygons(px, py, vx, vy))[..., None]

    fill_rgb = _PALETTE[label]
    if style["gray"]:
        fill_rgb = np.full(3, float(fill_rgb.mean()) * 0.4)

    img = np.full((g, size, size, 3), style["bg"], dtype=np.float64)
    if style["noise"] > 0:
        noise = u[:, 4:].reshape(g, size, size)
        img += style["noise"] * (2 * noise[..., None] - 1)

    if style["outline"]:
        edge = _pixel_means(_dist_to_edges(px, py, vx, vy) < 0.55)[..., None]
        if domain_id == "clipart_like":
            img = img * (1 - coverage) + fill_rgb * coverage
        img = img * (1 - edge) + 0.05 * edge
    else:
        img = img * (1 - coverage) + fill_rgb * coverage

    if style["blur"]:
        img = _blur_wrap(img, style["blur"])
        # compress contrast toward mid-gray
        img = 0.42 + 0.55 * (img - img.reshape(g, -1).mean(axis=1)[:, None, None, None])

    if style["gray"]:
        img = np.repeat(img.mean(axis=3, keepdims=True), 3, axis=3)

    return np.clip(img, 0.0, 1.0).astype(np.float32)


def _render(domain: DomainSpec, split: str, first: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Images ``first`` .. ``first + n - 1`` of a split with their labels."""
    if split not in _SPLIT_BASE:
        raise DomainError(f"split must be train or test, got {split!r}")
    if isinstance(first, bool) or not isinstance(first, (int, np.integer)):
        raise DomainError(f"index must be an integer, got {first!r}")
    if first < 0 or first + n > _TEST_INDEX_BASE:
        raise DomainError(f"indices {first}..{first + n - 1} outside [0, 2**32)")
    global_index = _SPLIT_BASE[split] + np.arange(first, first + n, dtype=np.uint64)
    labels = (global_index % np.uint64(NUM_CLASSES)).astype(np.int64)
    stream_ids = derive_stream_id(_STREAM_DATA, domain.index, global_index)
    n_draws = 4 + (IMAGE_SIZE * IMAGE_SIZE if _STYLES[domain.domain_id]["noise"] > 0 else 0)

    images = np.empty((n, IMAGE_SIZE, IMAGE_SIZE, 3), dtype=np.float32)
    for lo in range(0, n, _RENDER_CHUNK):
        chunk = slice(lo, min(lo + _RENDER_CHUNK, n))
        u = lane_uniforms(seed, stream_ids[chunk], n_draws)
        chunk_labels = labels[chunk]
        for label in np.unique(chunk_labels):
            rows = np.flatnonzero(chunk_labels == label)
            images[lo + rows] = _render_group(domain.domain_id, int(label), u[rows])
    return images, labels


def render_image(domain: DomainSpec, split: str, index: int, seed: int) -> tuple[np.ndarray, int]:
    """Image ``index`` (0 <= index < 2**32) of a split and its label: a batch of one."""
    images, labels = _render(domain, split, index, 1, seed)
    return images[0], int(labels[0])


def generate(domain: DomainSpec, split: str, n: int, seed: int) -> Dataset:
    """Class-balanced (+-1) deterministic dataset for one domain and split."""
    if n < 1:
        raise DomainError("n must be at least 1")
    if n < NUM_CLASSES:
        warnings.warn(f"n={n} below num_classes={NUM_CLASSES}; balance impossible")
    images, labels = _render(domain, split, 0, n, seed)
    provenance = {"domain": domain.domain_id, "seed": seed, "split": split, "n": n, "shuffle": None}
    return Dataset(images, labels, split, provenance)


def block_shuffle(img: np.ndarray, spec: ShuffleSpec, index: int) -> np.ndarray:
    """Permute b x b blocks (scalars for STAR) with the (seed, index) stream."""
    img = np.asarray(img)
    if img.shape != (IMAGE_SIZE, IMAGE_SIZE, 3):
        raise DomainError(f"expected (16, 16, 3) image, got {img.shape}")
    key = 0 if spec.shared_permutation else index
    rng = RngStream(spec.seed, derive_stream_id(_STREAM_SHUFFLE, key))
    if spec.block_size == STAR:
        perm = rng.permutation(img.size)
        return img.reshape(-1)[perm].reshape(img.shape).copy()
    b = spec.block_size
    if b == IMAGE_SIZE:
        return img.copy()
    nb = IMAGE_SIZE // b
    perm = rng.permutation(nb * nb)
    blocks = img.reshape(nb, b, nb, b, 3).transpose(0, 2, 1, 3, 4).reshape(nb * nb, b, b, 3)
    shuffled = blocks[perm]
    out = shuffled.reshape(nb, nb, b, b, 3).transpose(0, 2, 1, 3, 4).reshape(IMAGE_SIZE, IMAGE_SIZE, 3)
    return out.copy()


def apply_shuffle(dataset: Dataset, spec: ShuffleSpec) -> Dataset:
    """Shuffled copy of a dataset; image i uses permutation index i."""
    images = np.stack([block_shuffle(dataset.images[i], spec, i) for i in range(len(dataset))])
    provenance = dict(dataset.provenance)
    provenance["shuffle"] = {
        "block_size": spec.block_size,
        "seed": spec.seed,
        "shared_permutation": spec.shared_permutation,
    }
    return Dataset(images, dataset.labels.copy(), dataset.split, provenance)


def concat_datasets(datasets: list[Dataset]) -> Dataset:
    """Union of several datasets (combined-domain training)."""
    if not datasets:
        raise DomainError("need at least one dataset")
    images = np.concatenate([d.images for d in datasets])
    labels = np.concatenate([d.labels for d in datasets])
    provenance = {
        "combined": [d.provenance for d in datasets],
        "split": datasets[0].split,
    }
    return Dataset(images, labels, datasets[0].split, provenance)


def relative_accuracy_drop(a_pt: float, a_rit: float) -> float:
    """100 * (a_pt - a_rit) / a_pt; negative when training from scratch wins."""
    if a_pt <= 0:
        raise DomainError("a_pt must be positive")
    return 100.0 * (a_pt - a_rit) / a_pt


def domain_spec(name: str) -> DomainSpec:
    return DomainSpec(name)
