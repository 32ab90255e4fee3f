"""Synthetic multi-domain image tasks and block-shuffle corruptions.

Every image is a pure function of (domain, seed, split, index): class k draws
a polygon with k+3 vertices and a class-fixed radius pattern, rendered in the
domain's style. Five styles stand in for progressively less photo-like
domains, from textured color fills down to blurred low-contrast grayscale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rng import RngStream, derive_stream_id

DOMAIN_NAMES = ("source", "real_like", "clipart_like", "quickdraw_like", "xray_like")
STAR = "*"
IMAGE_SIZE = 16
NUM_CLASSES = 10

_STREAM_DATA = 0x44415441  # "DATA"
_STREAM_SHUFFLE = 0x53484646  # "SHFF"
_TEST_INDEX_BASE = 1 << 32

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
            if not isinstance(self.block_size, int) or self.block_size < 1:
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


def _point_in_polygon(px: np.ndarray, py: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Even-odd ray casting, vectorized over points."""
    inside = np.zeros(px.shape, dtype=bool)
    x1, y1 = verts[:, 0], verts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    for k in range(len(verts)):
        crosses = (y1[k] > py) != (y2[k] > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = (x2[k] - x1[k]) * (py - y1[k]) / (y2[k] - y1[k]) + x1[k]
        inside ^= crosses & (px < xcross)
    return inside


def _dist_to_edges(px: np.ndarray, py: np.ndarray, verts: np.ndarray) -> np.ndarray:
    p = np.stack([px, py], axis=-1)[..., None, :]  # (..., 1, 2)
    a = verts[None, :, :]
    b = np.roll(verts, -1, axis=0)[None, :, :]
    ab = b - a
    t = np.clip(np.sum((p - a) * ab, axis=-1) / np.sum(ab * ab, axis=-1), 0.0, 1.0)
    closest = a + t[..., None] * ab
    return np.sqrt(np.sum((p - closest) ** 2, axis=-1)).min(axis=-1)


def _blur_wrap(img: np.ndarray, passes: int) -> np.ndarray:
    """Separable binomial [1,4,6,4,1]/16 blur with circular wrap."""
    out = img.astype(np.float64)
    taps = np.array([1, 4, 6, 4, 1], dtype=np.float64) / 16.0
    for _ in range(passes):
        for axis in (0, 1):
            acc = np.zeros_like(out)
            for shift, w in zip(range(-2, 3), taps):
                acc += w * np.roll(out, shift, axis=axis)
            out = acc
    return out


def render_image(domain: DomainSpec, split: str, index: int, seed: int) -> tuple[np.ndarray, int]:
    """One (image, label) pair; bit-identical for identical arguments."""
    base = _TEST_INDEX_BASE if split == "test" else 0
    global_index = base + index
    label = global_index % NUM_CLASSES
    rng = RngStream(seed, derive_stream_id(_STREAM_DATA, domain.index, global_index))
    style = _STYLES[domain.domain_id]
    size = IMAGE_SIZE

    rot = 2 * math.pi * rng.uniform()
    scale = 0.325 * size * (1.0 + 0.10 * (2 * rng.uniform() - 1))
    cx = size / 2 + 1.5 * (2 * rng.uniform() - 1)
    cy = size / 2 + 1.5 * (2 * rng.uniform() - 1)
    verts = _class_polygon(label) * scale
    c, s = math.cos(rot), math.sin(rot)
    verts = verts @ np.array([[c, s], [-s, c]]) + np.array([cx, cy])

    # 2x2 supersampled coverage and edge distance
    sub = np.array([0.25, 0.75])
    coords = (np.arange(size)[:, None] + sub[None, :]).reshape(-1)
    py, px = np.meshgrid(coords, coords, indexing="ij")
    inside = _point_in_polygon(px, py, verts)
    coverage = inside.reshape(size, 2, size, 2).mean(axis=(1, 3))

    fill_rgb = _PALETTE[label]
    if style["gray"]:
        fill_rgb = np.full(3, float(fill_rgb.mean()) * 0.4)

    bg = np.full((size, size, 3), style["bg"], dtype=np.float64)
    if style["noise"] > 0:
        noise = rng.uniform(size * size).reshape(size, size)
        bg += style["noise"] * (2 * noise[:, :, None] - 1)
    img = bg

    if style["outline"]:
        dist = _dist_to_edges(px, py, verts)
        edge = (dist < 0.55).reshape(size, 2, size, 2).mean(axis=(1, 3))
        if domain.domain_id == "clipart_like":
            img = img * (1 - coverage[:, :, None]) + fill_rgb * coverage[:, :, None]
        img = img * (1 - edge[:, :, None]) + 0.05 * edge[:, :, None]
    else:
        img = img * (1 - coverage[:, :, None]) + fill_rgb * coverage[:, :, None]

    if style["blur"]:
        img = _blur_wrap(img, style["blur"])
        # compress contrast toward mid-gray
        img = 0.42 + 0.55 * (img - img.mean())

    if style["gray"]:
        gray = img.mean(axis=2, keepdims=True)
        img = np.repeat(gray, 3, axis=2)

    return np.clip(img, 0.0, 1.0).astype(np.float32), int(label)


def generate(domain: DomainSpec, split: str, n: int, seed: int) -> Dataset:
    """Class-balanced (+-1) deterministic dataset for one domain and split."""
    if split not in ("train", "test"):
        raise DomainError(f"split must be train or test, got {split!r}")
    if n < 1:
        raise DomainError("n must be at least 1")
    if n < NUM_CLASSES:
        warnings.warn(f"n={n} below num_classes={NUM_CLASSES}; balance impossible")
    images = np.empty((n, IMAGE_SIZE, IMAGE_SIZE, 3), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        images[i], labels[i] = render_image(domain, split, i, seed)
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
