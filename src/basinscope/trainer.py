"""Pre-train / fine-tune driver covering the four regimes: pre-trained,
random-init, and either one fine-tuned on a target task.

A checkpoint sweep renders the target data once and fine-tunes from each
pre-training checkpoint in turn on it.

Batch order comes from a dedicated stream keyed only by (config.seed, epoch),
so two configs that differ only in their init train on identical batch
sequences; initialization is then the sole difference between runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import dataops
from .errors import DivergedRunError, DomainError
from .model import (
    ArchDescriptor, ParamVector, _check_labels, _check_params, _network_input, _nll, _run_layers, backward,
    init_random, sgd_step,
)
from .numerics import _as_choice, _as_flag, _as_grid, _as_int, _as_real
from .rng import RngStream, derive_stream_id

_STREAM_BATCH = 0x42415443  # "BATC"
EVAL_BATCH = 256


@dataclass(frozen=True)
class InitSpec:
    """Random(seed) or FromCheckpoint(path); each kind rejects the other's field."""

    kind: str  # "random" | "checkpoint"
    seed: int = 0
    path: str = ""

    def __post_init__(self):
        object.__setattr__(self, "seed", _as_int(self.seed, "init seed"))
        object.__setattr__(self, "kind", _as_choice(self.kind, "init kind", ("random", "checkpoint")))
        unused = "path" if self.kind == "random" else "seed"
        if getattr(self, unused):
            raise DomainError(f"a {self.kind} init takes no {unused}")


@dataclass(frozen=True)
class DataSpec:
    """Target task: one domain, sizes, optional shuffle. ``domains`` holds
    exactly one name; it stays a tuple so that config hashes keep their
    bytes."""

    domains: tuple[str, ...]
    n_train: int = 2000
    n_test: int = 1000
    seed: int = 0
    shuffle_block: int | str | None = None
    shuffle_seed: int = 0
    shared_permutation: bool = False

    def __post_init__(self):
        if isinstance(self.domains, str):
            raise DomainError(f"domains must be a tuple of one domain name, such as ({self.domains!r},), not a str")
        object.__setattr__(self, "domains", tuple(self.domains))
        for name, least in (("n_train", 1), ("n_test", 1), ("seed", None), ("shuffle_seed", None)):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, least))
        object.__setattr__(self, "shared_permutation", _as_flag(self.shared_permutation, "shared_permutation"))
        if len(self.domains) != 1:
            raise DomainError(f"need exactly one domain, got {len(self.domains)}")
        dataops.domain_spec(self.domains[0])
        if self.shuffle_block is not None:
            shuffle = dataops.ShuffleSpec(self.shuffle_block, self.shuffle_seed, self.shared_permutation)
            object.__setattr__(self, "shuffle_block", shuffle.block_size)
        elif self.shuffle_seed or self.shared_permutation:
            raise DomainError("shuffle_seed and shared_permutation need a shuffle_block")


@dataclass(frozen=True)
class TrainConfig:
    arch: ArchDescriptor
    data: DataSpec
    epochs: int
    batch_size: int = 64  # smaller batches destabilize lr 0.05 on tiny nets
    lr_schedule: tuple[tuple[int, float], ...] = ((0, 0.05), (30, 0.005))
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0
    init: InitSpec = field(default_factory=lambda: InitSpec("random"))
    checkpoint_epochs: tuple[int, ...] = ()
    # Without normalization layers, a momentum spike can kill every ReLU at
    # lr 0.05; capping the global gradient norm only clips those spikes.
    clip_grad_norm: float | None = 2.0

    def __post_init__(self):
        schedule = tuple((_as_int(e, "lr schedule epoch"), _as_real(lr, "learning rate", above=0)) for e, lr in self.lr_schedule)
        object.__setattr__(self, "lr_schedule", schedule)
        object.__setattr__(self, "checkpoint_epochs", tuple(_as_int(e, "checkpoint epoch") for e in self.checkpoint_epochs))
        for name, least in (("epochs", 0), ("batch_size", 1), ("seed", None)):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, least))
        object.__setattr__(self, "momentum", _as_real(self.momentum, "momentum", least=0, below=1))
        object.__setattr__(self, "weight_decay", _as_real(self.weight_decay, "weight_decay", least=0))
        if _as_grid([e for e, _ in schedule], "lr schedule epochs")[0] != 0:
            raise DomainError("lr schedule must start at epoch 0")
        if self.clip_grad_norm is not None:
            object.__setattr__(self, "clip_grad_norm", _as_real(self.clip_grad_norm, "clip_grad_norm", above=0))
        if any(not 0 <= e <= self.epochs for e in self.checkpoint_epochs):
            raise DomainError(f"checkpoint epochs must lie in [0, {self.epochs}]")

    def to_dict(self) -> dict:
        return json.loads(json.dumps(asdict(self)))


def config_hash(config: TrainConfig) -> str:
    text = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Checkpoint:
    arch: ArchDescriptor
    params: ParamVector
    epoch: int
    metrics: dict
    config_hash: str
    rng_digest: str
    provenance: dict = field(default_factory=dict)
    optimal: bool = False

    def __post_init__(self):
        _check_params(self.params, self.arch)

    def equals(self, other: "Checkpoint") -> bool:
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(a.equals(b) if isinstance(a, ParamVector) else a == b for a, b in pairs)


@dataclass
class EvalResult:
    loss: float
    accuracy: float
    predictions: np.ndarray


@dataclass
class RunRecord:
    rows: list  # per-epoch dicts: epoch, train_loss, train_acc, test_loss, test_acc
    optimization_speed: float  # mean train accuracy over the epochs, 0 without any


def lr_at(schedule, epoch: int) -> float:
    lr = schedule[0][1]
    for e, value in schedule:
        if epoch >= e:
            lr = value
    return lr


def make_datasets(data: DataSpec):
    """Build the (train, test) datasets the spec describes."""

    def build(split, n):
        ds = dataops.generate(dataops.domain_spec(data.domains[0]), split, n, data.seed)
        if data.shuffle_block is not None:
            ds = dataops.apply_shuffle(ds, dataops.ShuffleSpec(data.shuffle_block, data.shuffle_seed, data.shared_permutation))
        return ds

    return build("train", data.n_train), build("test", data.n_test)


def _score_batches(labels: np.ndarray, logit_batches: list[np.ndarray]) -> EvalResult:
    """Mean cross-entropy and accuracy (argmax, ties to lowest class) of
    float64 logits for consecutive batches of the images, against their
    labels, which the caller has checked (``_check_labels``) against the
    number of images."""
    n = len(labels)
    preds = np.empty(n, dtype=np.int64)
    loss_sum = 0.0
    start = 0
    for z in logit_batches:
        stop = start + z.shape[0]
        loss_sum += float(np.sum(_nll(z, labels[start:stop])[0]))
        preds[start:stop] = np.argmax(z, axis=1)
        start = stop
    return EvalResult(loss=loss_sum / n, accuracy=float((preds == labels).mean()), predictions=preds)


def _eval_batches(images):
    """Consecutive slices of at most EVAL_BATCH images: the batches of every
    forward-only pass."""
    for start in range(0, len(images), EVAL_BATCH):
        yield images[start : start + EVAL_BATCH]


def _same_arch(*holders) -> ArchDescriptor:
    """The architecture that checkpoints and configs share; DomainError
    naming the first two that differ."""
    arch = holders[0].arch
    for other in holders[1:]:
        if other.arch != arch:
            raise DomainError(f"architectures differ: {arch.to_json()} vs {other.arch.to_json()}")
    return arch


def _evaluate_all(vectors: list[ParamVector], arch: ArchDescriptor, dataset: dataops.Dataset) -> list[EvalResult]:
    """``evaluate`` of each parameter vector on dataset, all vectors in one
    pass of the core per batch of EVAL_BATCH images, so each tile's patches
    are gathered once for all of them. The labels are checked against the
    images before any forward pass."""
    _check_labels(dataset.labels, arch.num_classes, len(dataset.images))
    batches = [_run_layers(vectors, arch, _network_input(arch, batch)) for batch in _eval_batches(dataset.images)]
    return [_score_batches(dataset.labels, [logits[v] for logits in batches]) for v in range(len(vectors))]


def evaluate(params: ParamVector, arch: ArchDescriptor, dataset: dataops.Dataset) -> EvalResult:
    """Mean cross-entropy and accuracy (argmax, ties to lowest class) over
    batches of EVAL_BATCH images, and the predictions. Per-class accuracy
    is ``similarity.mistake_table(..., group_by="class")``'s."""
    return _evaluate_all([params], arch, dataset)[0]


def _split_rows(vectors: list[ParamVector], arch: ArchDescriptor, train_ds: dataops.Dataset, test_ds: dataops.Dataset) -> list[dict]:
    """One metric row per parameter vector: its train_loss, train_acc,
    test_loss and test_acc on the two splits, each split scored once for
    all vectors (``_evaluate_all``)."""
    rows = zip(_evaluate_all(vectors, arch, train_ds), _evaluate_all(vectors, arch, test_ds))
    return [{"train_loss": a.loss, "train_acc": a.accuracy, "test_loss": b.loss, "test_acc": b.accuracy} for a, b in rows]


def split_metrics(params: ParamVector, arch: ArchDescriptor, train_ds: dataops.Dataset, test_ds: dataops.Dataset) -> dict:
    """train_loss, train_acc, test_loss and test_acc of params on the two splits."""
    return _split_rows([params], arch, train_ds, test_ds)[0]


def _resolve_init(config: TrainConfig, init_checkpoint: Checkpoint | None) -> ParamVector:
    """The initial parameters, from one source: the random init's seed, or
    the checkpoint passed in, else the one at the init's path."""
    if config.init.kind == "random":
        if init_checkpoint is not None:
            raise DomainError("a random init takes no init_checkpoint")
        return init_random(config.arch, RngStream(config.init.seed))
    ckpt = init_checkpoint
    if ckpt is None:
        if not config.init.path:
            raise DomainError("a checkpoint init needs an init_checkpoint or a path")
        from . import persistence

        ckpt = persistence.load_checkpoint(config.init.path)
    _same_arch(config, ckpt)
    return ckpt.params.copy()


def train(
    config: TrainConfig,
    *,
    init_checkpoint: Checkpoint | None = None,
    datasets=None,
) -> tuple[Checkpoint, RunRecord, list[Checkpoint]]:
    """Run one training job; deterministic given the config.

    datasets, when given, is the (train, test) pair make_datasets(config.data)
    would build. Returns (final checkpoint, run record, checkpoints saved at
    config.checkpoint_epochs plus the final epoch).

    Everything runs on the calling thread. Each epoch runs its steps, is
    then scored (``split_metrics``) and has its row and checkpoint recorded
    before the next epoch's first step. The initial parameters are scored
    first when epoch 0 is checkpointed or there are no epochs. A non-finite
    loss or gradient in epoch e raises DivergedRunError(e) at that step,
    with every earlier epoch already scored.
    """
    params = _resolve_init(config, init_checkpoint)
    train_ds, test_ds = datasets if datasets is not None else make_datasets(config.data)
    if config.batch_size > len(train_ds):
        raise DomainError("batch_size exceeds train set size")
    chash = config_hash(config)
    provenance = {"data": config.to_dict()["data"], "seed": config.seed, "init": config.init.kind}

    buf = None
    rows: list[dict] = []
    saved: list[Checkpoint] = []
    n = len(train_ds)

    def snapshot(epoch: int, at: ParamVector, metrics: dict, batch_rng_state) -> Checkpoint:
        return Checkpoint(
            arch=config.arch,
            params=at.copy(),
            epoch=epoch,
            metrics=dict(metrics),
            config_hash=chash,
            rng_digest=hashlib.sha256(repr(batch_rng_state).encode()).hexdigest(),
            provenance=dict(provenance),
        )

    def score(epoch: int, at: ParamVector, batch_rng_state) -> dict:
        """at's split_metrics, recorded as epoch's row and checkpoint."""
        metrics = split_metrics(at, config.arch, train_ds, test_ds)
        if epoch:
            rows.append({"epoch": epoch, **metrics})
        if epoch in config.checkpoint_epochs and epoch != config.epochs:
            saved.append(snapshot(epoch, at, metrics, batch_rng_state))
        return metrics

    def run_epoch(epoch: int, params: ParamVector, buf):
        """epoch's steps from params and the momentum buffer buf; returns
        both after them, and the batch rng state."""
        lr = lr_at(config.lr_schedule, epoch)
        batch_rng = RngStream(config.seed, derive_stream_id(_STREAM_BATCH, epoch))
        order = batch_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grad = backward(params, config.arch, train_ds.images[idx], train_ds.labels[idx])
            if not (np.isfinite(loss) and np.all(np.isfinite(grad.values))):
                raise DivergedRunError(epoch)
            if config.clip_grad_norm is not None:
                gnorm = float(np.linalg.norm(grad.values.astype(np.float64)))
                if gnorm > config.clip_grad_norm:
                    grad = ParamVector(grad.values * (config.clip_grad_norm / gnorm), grad.index)
            params, buf = sgd_step(params, grad, lr, buf, config.momentum, config.weight_decay)
        return params, buf, batch_rng.state()

    # with no epochs to run, the final checkpoint is the epoch-0 one
    if 0 in config.checkpoint_epochs or config.epochs == 0:
        metrics = score(0, params, ("init",))
    for epoch in range(config.epochs):
        params, buf, state = run_epoch(epoch, params, buf)
        metrics = score(epoch + 1, params, state)
    final = snapshot(config.epochs, params, metrics, ("final", config.epochs))
    saved.append(final)

    # flag the best-validation checkpoint among the saved ones (ties: earliest)
    best = max(range(len(saved)), key=lambda i: (saved[i].metrics["test_acc"], -saved[i].epoch))
    saved[best].optimal = True

    optimization_speed = float(np.mean([r["train_acc"] for r in rows])) if rows else 0.0
    return final, RunRecord(rows, optimization_speed), saved


def checkpoint_sweep(pretrain_ckpts: list[Checkpoint], finetune_config: TrainConfig) -> list[dict]:
    """Fine-tune once per pre-training checkpoint; rows ordered by input.

    The target data is rendered once and every fine-tuning run trains on it.
    """
    if not pretrain_ckpts:
        raise DomainError("need at least one checkpoint")
    _same_arch(finetune_config, *pretrain_ckpts)
    config = replace(finetune_config, init=InitSpec("checkpoint", path=""))
    datasets = make_datasets(config.data)
    rows = []
    for ckpt in pretrain_ckpts:
        final, record, _ = train(config, init_checkpoint=ckpt, datasets=datasets)
        rows.append(
            {
                "ckpt_epoch": ckpt.epoch,
                "final_test_acc": final.metrics["test_acc"],
                "optimization_speed": record.optimization_speed,
            }
        )
    return rows
