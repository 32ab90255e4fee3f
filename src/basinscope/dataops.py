"""Synthetic image tasks, one domain per dataset, and block-shuffle corruptions.

Every image is a pure function of (domain, seed, split, index): class k draws
a polygon with k+3 vertices and a class-fixed radius pattern, rendered in the
domain's style. Five styles stand in for progressively less photo-like
domains, from textured color fills down to blurred low-contrast grayscale.

Rendering works on whole batches. Each image's own (seed, stream-id) stream
is drawn with ``lane_uniforms``, all streams in lockstep. Labels cycle with
the index and the images of one label share a vertex count, so each label
group is rasterised together on the 32 x 32 grid of 2x2 sub-samples:

- Fill (scan-line even-odd rule). An edge's crossing of a sample row
  depends only on the row, so the crossings are computed once per image,
  edge and row. Each becomes the count of samples left of it, and every
  sample's parity follows from suffix sums of one histogram of the counts.
- Outline. Each edge is tested only in its window, its bounding box grown
  by ``_EDGE_MARGIN``, and the samples closer than ``_OUTLINE_RADIUS`` are
  ORed into the mask. That equals thresholding the distance to the nearest
  edge: sqrt is monotone, and a sample outside the window lies farther than
  the radius. It needs every edge to have non-zero length, which the class
  polygons (distinct vertices, positive scale) meet.

The rotations run as one stacked 2x2 product; only ``math.cos``/``math.sin``
stay per image. The image is then composed channels first. Every array op
repeats the per-image arithmetic element for element, and every reduction
runs in the per-image order, so a batch renders bit-identically to one image
at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import _as_choice, _as_flag, _as_int, _as_real
from .rng import derive_stream_id, lane_permutations, lane_uniforms

DOMAIN_NAMES = ("source", "real_like", "clipart_like", "quickdraw_like", "xray_like")
STAR = "*"
IMAGE_SIZE = 16
NUM_CLASSES = 10

_STREAM_DATA = 0x44415441  # "DATA"
_STREAM_SHUFFLE = 0x53484646  # "SHFF"
_TEST_INDEX_BASE = 1 << 32
_SPLIT_BASE = {"train": 0, "test": _TEST_INDEX_BASE}
_RENDER_CHUNK = 1024  # images per lane draw; bounds the temporaries for any n
# 2x2 supersampling: sample coordinates along either image axis
_SAMPLES = (np.arange(IMAGE_SIZE)[:, None] + np.array([0.25, 0.75])).reshape(-1)
_OUTLINE_RADIUS = 0.55  # samples closer than this to an edge are outline
_EDGE_MARGIN = 0.6  # an edge's window is its bounding box grown by this; above the radius

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
    "source": {"noise": 0.22, "bg": 0.45, "fill": True, "outline": False, "gray": False, "blur": 0},
    "real_like": {"noise": 0.16, "bg": 0.55, "fill": True, "outline": False, "gray": False, "blur": 0},
    "clipart_like": {"noise": 0.0, "bg": 0.92, "fill": True, "outline": True, "gray": False, "blur": 0},
    "quickdraw_like": {"noise": 0.0, "bg": 1.0, "fill": False, "outline": True, "gray": True, "blur": 0},
    "xray_like": {"noise": 0.04, "bg": 0.35, "fill": True, "outline": False, "gray": True, "blur": 2},
}


@dataclass(frozen=True)
class DomainSpec:
    domain_id: str

    def __post_init__(self):
        object.__setattr__(self, "domain_id", _as_choice(self.domain_id, "domain", DOMAIN_NAMES))

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
        if not (isinstance(self.block_size, str) and self.block_size == STAR):
            block = _as_int(self.block_size, "block size", 1)
            if IMAGE_SIZE % block:
                raise DomainError(f"block size {block} must divide {IMAGE_SIZE}")
            object.__setattr__(self, "block_size", block)
        object.__setattr__(self, "seed", _as_int(self.seed, "shuffle seed"))
        object.__setattr__(self, "shared_permutation", _as_flag(self.shared_permutation, "shared_permutation"))


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
    """Even-odd scan-line fill of G polygons over the grid of sorted 1-D ``px`` x ``py``.

    ``vx``, ``vy`` are (G, m) vertex coordinates; returns (G, len(py), len(px))
    bools. Edge k crosses row y when exactly one of its ends lies above y,
    at the x of the ray-casting formula. A sample is inside when an odd
    number of its row's crossings lie right of it; ``searchsorted`` turns
    each crossing into the count of samples with px < xcross, and suffix
    sums of one histogram of those counts give every sample's parity.
    """
    g, h, w = len(vx), py.size, px.size
    x1, y1 = vx[:, :, None], vy[:, :, None]
    x2, y2 = np.roll(x1, -1, axis=1), np.roll(y1, -1, axis=1)
    crosses = (y1 > py) != (y2 > py)  # (G, m, H)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # only crossings are kept
        xcross = (x2 - x1) * (py - y1) / (y2 - y1) + x1
    row = np.broadcast_to(np.arange(g * h).reshape(g, 1, h), crosses.shape)[crosses]
    left = np.searchsorted(px, xcross[crosses], "left")
    # hist[c, r]: crossings of row r with c samples left of them; the
    # crossings right of sample j are those with c > j
    hist = np.bincount(left * (g * h) + row, minlength=(w + 1) * g * h).reshape(w + 1, g * h)
    right = np.cumsum(hist[:0:-1], axis=0, dtype=np.uint8)[::-1]  # mod 256 keeps the parity
    return (right & 1).view(bool).T.reshape(g, h, w)


def _outline_mask(px: np.ndarray, py: np.ndarray, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """(G, len(py), len(px)) bools: samples of the sorted 1-D grid within
    _OUTLINE_RADIUS of some edge of their polygon.

    Each edge is tested only in its window, the samples inside its bounding
    box grown by _EDGE_MARGIN; a sample outside it lies at least that far
    from the edge. The hits sqrt(d_k) < radius are ORed together, which
    equals thresholding the distance to the nearest edge because sqrt is
    monotone. d_k is the same IEEE arithmetic as the textbook projection
    (t clipped to [0, 1], then |p - (a + t ab)|^2).

    Precondition: no edge has zero length (its squared length must not be
    0). Such an edge's 0/0 gives NaN distances in its window only, where a
    minimum over all edges would spread NaN to every sample.
    """
    g, h, w = len(vx), py.size, px.size
    bx, by = np.roll(vx, -1, axis=1), np.roll(vy, -1, axis=1)

    def window(p, lo, hi):
        """(G, m, k) sample indices covering [lo - margin, hi + margin], k the widest edge's count."""
        first = np.searchsorted(p, lo - _EDGE_MARGIN, "left")
        width = int((np.searchsorted(p, hi + _EDGE_MARGIN, "right") - first).max())
        first = np.minimum(first, p.size - width)  # a window clipped by the border slides inward
        return first[:, :, None] + np.arange(width)

    jx = window(px, np.minimum(vx, bx), np.maximum(vx, bx))[:, :, None, :]
    jy = window(py, np.minimum(vy, by), np.maximum(vy, by))[:, :, :, None]
    qx, qy = px[jx], py[jy]
    ax, ay = vx[:, :, None, None], vy[:, :, None, None]
    abx, aby = bx[:, :, None, None] - ax, by[:, :, None, None] - ay
    # t = clip(((p - a) . ab) / (ab . ab), 0, 1)
    t = (qx - ax) * abx + (qy - ay) * aby
    t /= abx * abx + aby * aby
    np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
    # |p - (a + t ab)|^2, x part in ex, y part in t
    ex = t * abx
    ex += ax
    np.subtract(qx, ex, out=ex)
    ex *= ex
    t *= aby
    t += ay
    np.subtract(qy, t, out=t)
    t *= t
    ex += t
    hit = np.sqrt(ex, out=ex) < _OUTLINE_RADIUS
    flat = (np.arange(g)[:, None, None, None] * h + jy) * w + jx
    mask = np.zeros(g * h * w, dtype=bool)
    mask[flat[hit]] = True
    return mask.reshape(g, h, w)


def _blur_wrap(img: np.ndarray, passes: int) -> np.ndarray:
    """Separable binomial [1,4,6,4,1]/16 blur with circular wrap over the last two axes."""
    out = img.astype(np.float64)
    taps = np.array([1, 4, 6, 4, 1], dtype=np.float64) / 16.0
    for _ in range(passes):
        for axis in (-2, -1):
            acc = np.zeros_like(out)
            for shift, w in zip(range(-2, 3), taps):
                acc += w * np.roll(out, shift, axis=axis)
            out = acc
    return out


def _pixel_means(sub: np.ndarray) -> np.ndarray:
    """(G, 2H, 2W) supersampled bools -> (G, H, W) coverage fractions k/4, exact."""
    n = sub.view(np.uint8)
    n = n[:, 0::2] + n[:, 1::2]
    return (n[:, :, 0::2] + n[:, :, 1::2]) * 0.25


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
    c, s = np.array([[math.cos(r), math.sin(r)] for r in rot]).T
    turn = np.stack([np.stack([c, s], axis=1), np.stack([-s, c], axis=1)], axis=1)  # rows (c, s), (-s, c)
    verts = np.matmul(polygon * scale[:, None, None], turn) + np.stack([cx, cy], axis=1)[:, None, :]
    vx, vy = verts[:, :, 0], verts[:, :, 1]

    # The image is composed channels first, (C, G, 16, 16), so that every op
    # runs over whole images; C is 1 until a colored fill broadcasts it to 3.
    img = np.full((1, g, size, size), style["bg"], dtype=np.float64)
    if style["noise"] > 0:
        noise = u[:, 4:].reshape(g, size, size)
        img += style["noise"] * (2 * noise - 1)

    # 2x2 supersampled coverage and outline, (G, 16, 16) each
    if style["fill"]:
        coverage = _pixel_means(_inside_polygons(_SAMPLES, _SAMPLES, vx, vy))
        fill = float(_PALETTE[label].mean()) * 0.4 if style["gray"] else _PALETTE[label][:, None, None, None]
        img = img * (1 - coverage) + fill * coverage
    if style["outline"]:
        edge = _pixel_means(_outline_mask(_SAMPLES, _SAMPLES, vx, vy))
        img = img * (1 - edge) + 0.05 * edge

    if style["blur"]:
        img = _blur_wrap(img, style["blur"])
        # compress contrast toward mid-gray; the sum's order fixes its bits, so
        # each image is summed in (16, 16, 3) order
        mean = _channels_last(img).reshape(g, -1).mean(axis=1)
        img = 0.42 + 0.55 * (img - mean[:, None, None])

    if style["gray"]:
        # gray images keep one channel; the mean of three equal values is
        # (x + x + x) / 3 in any summation order, and need not equal x
        img = np.broadcast_to(img, (3,) + img.shape[1:]).mean(axis=0, keepdims=True)

    return _channels_last(np.clip(img, 0.0, 1.0).astype(np.float32))


def _channels_last(img: np.ndarray) -> np.ndarray:
    """(C, G, 16, 16) with C = 1 or 3 -> a (G, 16, 16, 3) view."""
    return np.moveaxis(np.broadcast_to(img, (3,) + img.shape[1:]), 0, -1)


def generate(domain: DomainSpec, split: str, n: int, seed: int) -> Dataset:
    """Class-balanced (+-1) deterministic dataset: images 0 .. n-1 of one
    domain and split, with their labels."""
    n, seed = _as_int(n, "n", 1), _as_int(seed, "seed")
    split = _as_choice(split, "split", _SPLIT_BASE)
    global_index = _SPLIT_BASE[split] + np.arange(n, dtype=np.uint64)
    labels = (global_index % np.uint64(NUM_CLASSES)).astype(np.int64)
    stream_ids = derive_stream_id(_STREAM_DATA, domain.index, global_index)
    n_draws = 4 + (IMAGE_SIZE * IMAGE_SIZE if _STYLES[domain.domain_id]["noise"] > 0 else 0)

    images = np.empty((n, IMAGE_SIZE, IMAGE_SIZE, 3), dtype=np.float32)
    for lo in range(0, n, _RENDER_CHUNK):
        hi = min(lo + _RENDER_CHUNK, n)
        u = lane_uniforms(seed, stream_ids[lo:hi], n_draws)
        # labels cycle with the index: the images of one label are every NUM_CLASSES-th
        for r in range(min(NUM_CLASSES, hi - lo)):
            group = _render_group(domain.domain_id, int(labels[lo + r]), u[r::NUM_CLASSES])
            images[lo + r : hi : NUM_CLASSES] = group
    if n < NUM_CLASSES:
        warnings.warn(f"n={n} below num_classes={NUM_CLASSES}; balance impossible")
    provenance = {"domain": domain.domain_id, "seed": seed, "split": split, "n": n, "shuffle": None}
    return Dataset(images, labels, split, provenance)


def _shuffle_batch(images: np.ndarray, spec: ShuffleSpec, stream_ids: np.ndarray) -> np.ndarray:
    """(N, 16, 16, 3) images, image r's b x b blocks (scalars for STAR) permuted
    by stream (spec.seed, stream_ids[r]); one id serves every image."""
    if images.shape[1:] != (IMAGE_SIZE, IMAGE_SIZE, 3):
        raise DomainError(f"expected (16, 16, 3) images, got {images.shape[1:]}")
    b = spec.block_size
    n = len(images)
    rows = np.arange(n)[:, None]
    if b == STAR:
        size = IMAGE_SIZE * IMAGE_SIZE * 3
        return images.reshape(n, size)[rows, lane_permutations(spec.seed, stream_ids, size)].reshape(images.shape)
    nb = IMAGE_SIZE // b
    # block (Y, X) of image r is images[r, Y*b:(Y+1)*b, X*b:(X+1)*b]; Y, X index axes 1 and 3 here
    src_y, src_x = np.divmod(lane_permutations(spec.seed, stream_ids, nb * nb), nb)
    shuffled = images.reshape(n, nb, b, nb, b, 3)[rows, src_y, :, src_x]
    return shuffled.reshape(n, nb, nb, b, b, 3).transpose(0, 1, 3, 2, 4, 5).reshape(images.shape)


def apply_shuffle(dataset: Dataset, spec: ShuffleSpec) -> Dataset:
    """Shuffled copy of a dataset; image i uses permutation index i.

    The images' streams draw in lockstep (``lane_permutations``) and the
    blocks of every image are gathered with one fancy index.
    """
    if spec.shared_permutation:
        stream_ids = [derive_stream_id(_STREAM_SHUFFLE, 0)]
    else:
        stream_ids = derive_stream_id(_STREAM_SHUFFLE, np.arange(len(dataset), dtype=np.uint64))
    images = _shuffle_batch(dataset.images, spec, stream_ids)
    provenance = dict(dataset.provenance)
    provenance["shuffle"] = {
        "block_size": spec.block_size,
        "seed": spec.seed,
        "shared_permutation": spec.shared_permutation,
    }
    return Dataset(images, dataset.labels.copy(), dataset.split, provenance)


def relative_accuracy_drop(a_pt: float, a_rit: float) -> float:
    """100 * (a_pt - a_rit) / a_pt; negative when training from scratch wins."""
    a_pt = _as_real(a_pt, "a_pt", above=0)
    return 100.0 * (a_pt - _as_real(a_rit, "a_rit")) / a_pt


def domain_spec(name: str) -> DomainSpec:
    return DomainSpec(name)
