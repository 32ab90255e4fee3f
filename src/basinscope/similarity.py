"""Representation and parameter-space comparison between trained models:
linear CKA per module, per-module and whole-network l2 distances, and
mistake agreement tables.

Linear CKA of centered (n, dx) and (n, dy) activations X and Y needs
||Y^T X||_F^2, ||X^T X||_F and ||Y^T Y||_F. These equal <X X^T, Y Y^T>_F,
||X X^T||_F and ||Y Y^T||_F (Kornblith et al. 2019, arXiv 1905.00414), so
they can be formed from d x d feature-space products or from n x n
example-space Gram matrices. ``linear_cka_flagged`` takes whichever needs
fewer multiply-adds: example space when n*(dx + dy) < dx^2 + dy^2 + dx*dy,
which also bounds its memory by n^2 <= CKA_MAX_EXAMPLES^2 whatever the layer
width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeError
from .model import ArchDescriptor, ParamVector, _network_input, _run_layers
from .numerics import _as_choice, _as_int
from .rng import RngStream
from .trainer import Checkpoint, _eval_batches, _same_arch

CKA_MAX_EXAMPLES = 2048
_STREAM_CKA = 0x434B41  # "CKA"


def linear_cka_flagged(x, y) -> tuple[float, bool]:
    """Linear CKA between activation matrices; flag marks a degenerate input.

    Columns are centered; the statistic is ||Y^T X||_F^2 divided by
    ||X^T X||_F * ||Y^T Y||_F. With n examples and dx, dy features it is
    computed in example space, as <X X^T, Y Y^T>_F over ||X X^T||_F *
    ||Y Y^T||_F, when n*(dx + dy) < dx^2 + dy^2 + dx*dy, and in feature
    space otherwise; the two forms differ by reassociation only. Each
    centered input is first divided by its largest magnitude, so inputs far
    from unit scale neither overflow nor underflow. Columns whose values are
    all equal center to exact zeros. An input with no varying column makes
    it 0/0, reported as (0.0, True); a non-finite activation raises
    DomainError.
    """
    # private float64 copies, centered in place below
    xc = np.array(x, dtype=np.float64)
    yc = np.array(y, dtype=np.float64)
    if xc.ndim != 2 or yc.ndim != 2:
        raise DomainError("activations must be 2-D (examples, features)")
    if xc.shape[0] != yc.shape[0]:
        raise DomainError(f"example counts differ: {xc.shape[0]} vs {yc.shape[0]}")
    if xc.shape[0] < 2:
        raise DomainError("need at least 2 examples")
    if not (np.isfinite(xc).all() and np.isfinite(yc).all()):
        raise DomainError("activations must be finite")
    for c in (xc, yc):
        mean = c.mean(axis=0)
        hi, lo = c.max(axis=0), c.min(axis=0)
        constant = hi == lo
        c -= mean
        # an inexact mean leaves a residue in a constant column; it carries no signal
        c[:, constant & (hi != mean)] = 0.0
        # centering is monotone per column, so the centered extremes are these
        hi -= mean
        lo -= mean
        hi[constant] = 0.0
        lo[constant] = 0.0
        # CKA is scale-invariant; unit scale keeps the products finite and normal
        peak = max(hi.max(), -lo.min())
        if peak > 0:
            c /= peak
    n, dx = xc.shape
    dy = yc.shape[1]
    if n * (dx + dy) < dx * dx + dy * dy + dx * dy:
        kx = xc @ xc.T
        ky = yc @ yc.T
        cross = np.vdot(kx, ky)
        nx = np.linalg.norm(kx)
        ny = np.linalg.norm(ky)
    else:
        cross = np.linalg.norm(yc.T @ xc) ** 2
        nx = np.linalg.norm(xc.T @ xc)
        ny = np.linalg.norm(yc.T @ yc)
    if nx == 0.0 or ny == 0.0:
        return 0.0, True
    return float(cross / (nx * ny)), False


def param_l2(a: ParamVector, b: ParamVector) -> tuple[dict, float]:
    """Per-module Euclidean distances and the whole-network distance."""
    if not a.same_index(b):
        raise DomainError("parameter vectors have different index tables")
    av = a.values.astype(np.float64)
    bv = b.values.astype(np.float64)
    per_module = {}
    for name in a.module_names():
        span = a.module_slice(name)
        per_module[name] = float(np.linalg.norm(av[span] - bv[span]))
    total = float(np.sqrt(sum(d * d for d in per_module.values())))
    return per_module, total


@dataclass
class MistakeRow:
    group: str  # class label as text, or "overall"
    acc1: float
    acc2: float
    g1: int  # only model 1 correct
    g2: int  # only model 2 correct
    common: int  # both wrong
    r1: float  # model 1's uncommon-mistake ratio: g2 / (g2 + common)
    r2: float  # model 2's uncommon-mistake ratio: g1 / (g1 + common)
    zero_denominator: bool


@dataclass
class MistakeTable:
    rows: list

    def row(self, group: str) -> MistakeRow:
        for r in self.rows:
            if r.group == group:
                return r
        raise DomainError(f"no row for group {group!r}")


def mistake_ratios(g1: int, g2: int, common: int) -> tuple[float, float, bool]:
    """(r1, r2, zero_denominator): a model's mistakes are its g + common."""
    g1, g2, common = (_as_int(count, "mistake count", 0) for count in (g1, g2, common))
    flagged = False
    if g2 + common > 0:
        r1 = g2 / (g2 + common)
    else:
        r1, flagged = 0.0, True
    if g1 + common > 0:
        r2 = g1 / (g1 + common)
    else:
        r2, flagged = 0.0, True
    return r1, r2, flagged


def _mistake_row(group, p1, p2, labels) -> MistakeRow:
    c1 = p1 == labels
    c2 = p2 == labels
    g1 = int(np.sum(c1 & ~c2))
    g2 = int(np.sum(~c1 & c2))
    common = int(np.sum(~c1 & ~c2))
    r1, r2, flagged = mistake_ratios(g1, g2, common)
    return MistakeRow(
        group=group,
        acc1=float(c1.mean()),
        acc2=float(c2.mean()),
        g1=g1,
        g2=g2,
        common=common,
        r1=r1,
        r2=r2,
        zero_denominator=flagged,
    )


def mistake_table(preds1, preds2, labels, group_by: str = "overall") -> MistakeTable:
    """Common/uncommon mistake counts and ratios, overall or per class."""
    p1 = np.asarray(preds1)
    p2 = np.asarray(preds2)
    labels = np.asarray(labels)
    if not (labels.ndim == 1 and p1.shape == p2.shape == labels.shape):
        raise SizeError(f"predictions and labels must be 1-D of one shape, got {p1.shape}, {p2.shape} and {labels.shape}")
    if labels.size == 0:
        raise DomainError("a mistake table needs at least one example")
    group_by = _as_choice(group_by, "group_by", ("overall", "class"))
    if group_by == "overall":
        return MistakeTable([_mistake_row("overall", p1, p2, labels)])
    rows = []
    for k in np.unique(labels):
        mask = labels == k
        rows.append(_mistake_row(str(int(k)), p1[mask], p2[mask], labels[mask]))
    return MistakeTable(rows)


@dataclass
class SimilarityReport:
    per_module_cka: dict  # module -> (value, degenerate flag)
    per_module_l2: dict
    total_l2: float
    distance_to_init_a: dict | None
    distance_to_init_b: dict | None


def _module_activations(vectors: list[ParamVector], arch: ArchDescriptor, images) -> list[dict]:
    """Per parameter vector, each module's float32 activations on images as
    (n, features) rows; each evaluation batch runs through the core once for
    all vectors, so each tile's patches are gathered once."""
    parts: list[dict[str, list]] = [{} for _ in vectors]
    for batch in _eval_batches(images):
        acts = []
        _run_layers(vectors, arch, _network_input(arch, batch), acts=acts)
        for modules, vector_acts in zip(parts, acts):
            for name, a in vector_acts:
                modules.setdefault(name, []).append(a.reshape(a.shape[0], -1))
    return [{name: np.concatenate(chunks) for name, chunks in modules.items()} for modules in parts]


def similarity_report(
    ckpt_a: Checkpoint,
    ckpt_b: Checkpoint,
    dataset,
    seed: int = 0,
    init_a: Checkpoint | None = None,
    init_b: Checkpoint | None = None,
) -> SimilarityReport:
    """Per-module CKA on dataset activations plus parameter-space distances.

    Activations are subsampled to at most CKA_MAX_EXAMPLES rows with a fixed
    stream so reports are reproducible. Both checkpoints' activations come
    from one shared pass of the core per evaluation batch.
    """
    arch = _same_arch(*(c for c in (ckpt_a, ckpt_b, init_a, init_b) if c is not None))
    images = dataset.images
    if len(images) < 2:
        raise DomainError("CKA needs at least 2 images")
    if len(images) > CKA_MAX_EXAMPLES:
        rng = RngStream(seed, _STREAM_CKA)
        idx = np.sort(rng.permutation(len(images))[:CKA_MAX_EXAMPLES])
        images = images[idx]
    acts_a, acts_b = _module_activations([ckpt_a.params, ckpt_b.params], arch, images)
    per_module_cka = {name: linear_cka_flagged(acts_a[name], acts_b[name]) for name in acts_a}
    per_module_l2, total = param_l2(ckpt_a.params, ckpt_b.params)
    dist_a = param_l2(ckpt_a.params, init_a.params)[0] if init_a is not None else None
    dist_b = param_l2(ckpt_b.params, init_b.params)[0] if init_b is not None else None
    return SimilarityReport(
        per_module_cka=per_module_cka,
        per_module_l2=per_module_l2,
        total_l2=total,
        distance_to_init_a=dist_a,
        distance_to_init_b=dist_b,
    )
