"""The benchmark workloads, built only on the public ``basinscope`` API.

Every workload is a closed loop: one pipeline at a time in one process.
``Inputs`` derives every seed and size from (size, variant); the library
receives only those generated inputs. Each workload has a set-up function
(untimed by the stage clocks, reported as ``setup_s``) and a pipeline of
two timed stages whose operations report outputs for the reference check.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from basinscope import criticality, dataops, landscape, model, persistence, rng, similarity, spectrum, trainer

from check import Ops, digest
from speed import Speedometer

ARCH = model.TINY4
SOURCE = "source"
TARGET = "clipart_like"
SHUFFLE_BLOCK = 4
CRITICALITY_MODULES = ("conv1", "conv2", "classifier")
BATCH_SIZE = 32  # twice the SGD steps of the default 64 at lower cost; pre-training then learns
_STREAM_CRITICALITY = 0x435249  # "CRI"
# Stage slots in order: stage1_s, stage2_s. Each stage is kept to seconds of
# work: on a shared 2-vCPU VM the speed shifts by about a third for seconds
# at a time, and a shorter stage samples a single such phase.
STAGES = {
    "transfer": ("data_pretrain", "finetune"),
    "analysis": ("barrier_similarity_spectrum", "criticality"),
}


@dataclass(frozen=True)
class Size:
    n_source_train: int
    n_source_test: int
    n_target_train: int
    n_target_test: int
    pretrain_epochs: int
    finetune_epochs: int
    barrier_points: int
    crit_alphas: tuple[float, ...]
    crit_sigmas: tuple[float, ...]
    crit_noise_samples: int
    crit_train: int
    crit_test: int
    basin_batch: int


SIZES = {
    "full": Size(
        n_source_train=512, n_source_test=256, n_target_train=256, n_target_test=256,
        pretrain_epochs=3, finetune_epochs=3, barrier_points=5,
        crit_alphas=(0.5, 1.0), crit_sigmas=(0.01, 0.1, 1.0), crit_noise_samples=2,
        crit_train=256, crit_test=128, basin_batch=64,
    ),
    "smoke": Size(
        n_source_train=128, n_source_test=64, n_target_train=128, n_target_test=64,
        pretrain_epochs=1, finetune_epochs=1, barrier_points=3,
        crit_alphas=(0.5, 1.0), crit_sigmas=(0.1, 1.0), crit_noise_samples=1,
        crit_train=64, crit_test=32, basin_batch=16,
    ),
}


@dataclass(frozen=True)
class Inputs:
    """Everything the workloads hand to the library, derived from one variant."""

    size: Size
    variant: int

    @property
    def source(self) -> trainer.DataSpec:
        s = self.size
        return trainer.DataSpec((SOURCE,), n_train=s.n_source_train, n_test=s.n_source_test, seed=self.variant)

    @property
    def target(self) -> trainer.DataSpec:
        s = self.size
        return trainer.DataSpec((TARGET,), n_train=s.n_target_train, n_test=s.n_target_test, seed=self.variant)

    @property
    def shuffle(self) -> dataops.ShuffleSpec:
        return dataops.ShuffleSpec(SHUFFLE_BLOCK, seed=self.variant)

    def pretrain_config(self) -> trainer.TrainConfig:
        return trainer.TrainConfig(
            ARCH, self.source, self.size.pretrain_epochs,
            # an explicit one-entry schedule constructs before and after the
            # lr-schedule validation fix
            batch_size=BATCH_SIZE, lr_schedule=((0, 0.05),),
            seed=self.variant, init=trainer.InitSpec("random", seed=self.variant),
        )

    def finetune_config(self, pretrained: bool, replica: int, shuffled: bool = False) -> trainer.TrainConfig:
        data = self.target
        if shuffled:
            data = trainer.DataSpec(
                data.domains, data.n_train, data.n_test, data.seed,
                shuffle_block=SHUFFLE_BLOCK, shuffle_seed=self.variant,
            )
        init = trainer.InitSpec("checkpoint") if pretrained else trainer.InitSpec("random", seed=self.random_init_seed(replica))
        return trainer.TrainConfig(
            ARCH, data, self.size.finetune_epochs, batch_size=BATCH_SIZE, lr_schedule=((0, 0.02),),
            seed=1000 * self.variant + replica, init=init,
        )

    def random_init_seed(self, replica: int) -> int:
        return 1000 * self.variant + 100 + replica

    def stream(self, *parts: int) -> rng.RngStream:
        return rng.RngStream(self.variant, rng.derive_stream_id(*parts))

    def config_hash(self) -> str:
        configs = {
            "size": asdict(self.size),
            "variant": self.variant,
            "pretrain": self.pretrain_config().to_dict(),
            "finetune": [self.finetune_config(p, r, s).to_dict() for p, r, s in FINETUNES],
            "target": TARGET,
            "shuffle_block": SHUFFLE_BLOCK,
        }
        return hashlib.sha256(json.dumps(configs, sort_keys=True).encode()).hexdigest()


# (pretrained, replica, shuffled) for each fine-tune run of the transfer workload
FINETUNES = ((True, 0, False), (False, 0, False), (True, 0, True), (False, 0, True))


class StageClock:
    """Times operations by stage.

    With a speedometer it samples the host's speed before and after each
    operation, so that ``seconds(scaled=True)`` can scale every operation's
    wall time to the reference speed (see ``speed.py``).
    """

    def __init__(self, speedometer: Speedometer | None = None):
        self.speedometer = speedometer
        self.stage: str | None = None
        self.intervals: list[tuple[str | None, float, float]] = []  # (stage, start, end)

    @contextmanager
    def __call__(self, name: str):
        outer, self.stage = self.stage, name
        try:
            yield
        finally:
            self.stage = outer

    def time(self, fn, *args, **kwargs):
        if self.speedometer is not None:
            self.speedometer.sample()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.intervals.append((self.stage, start, time.perf_counter()))
            if self.speedometer is not None:
                self.speedometer.sample()

    def seconds(self, scaled: bool) -> dict:
        """Seconds per stage, scaled or as measured."""
        totals: dict = {}
        for stage, start, end in self.intervals:
            factor = self.speedometer.scale(start, end) if scaled else 1.0
            totals[stage] = totals.get(stage, 0.0) + (end - start) * factor
        return totals


def _dataset_outputs(ds: dataops.Dataset) -> dict:
    return {"digest": digest(ds.images, ds.labels)}


def _train_outputs(ckpt: trainer.Checkpoint, test: dataops.Dataset):
    ev = trainer.evaluate(ckpt.params, ckpt.arch, test)
    outputs = {
        "params": digest(ckpt.params.values),
        "predictions": digest(ev.predictions),
        "test_acc": float(ev.accuracy),
        "test_loss": float(ev.loss),
    }
    return (ckpt, ev), outputs


def _generate(spec: trainer.DataSpec, split: str):
    n = spec.n_train if split == "train" else spec.n_test
    ds = dataops.generate(dataops.domain_spec(spec.domains[0]), split, n, spec.seed)
    return ds, _dataset_outputs(ds)


def _shuffled(ds: dataops.Dataset, spec: dataops.ShuffleSpec):
    out = dataops.apply_shuffle(ds, spec)
    return out, _dataset_outputs(out)


def _train(config: trainer.TrainConfig, datasets, init_checkpoint=None):
    ckpt, _, _ = trainer.train(config, init_checkpoint=init_checkpoint, datasets=datasets)
    return _train_outputs(ckpt, datasets[1])


# ---------------------------------------------------------------- transfer


def transfer_setup(inp: Inputs, work: Path, clock: StageClock) -> dict:
    """Nothing to prepare but configs and warm code paths (index caches)."""
    configs = {"pretrain": inp.pretrain_config(), "finetune": [inp.finetune_config(*f) for f in FINETUNES]}
    clock.time(warm_up, inp)
    return configs


def transfer_pipeline(inp: Inputs, state: dict, ops: Ops, clock: StageClock) -> None:
    with clock("data_pretrain"):
        src_train = ops.run("data.source.train", _generate, inp.source, "train")
        src_test = ops.run("data.source.test", _generate, inp.source, "test")
        tgt_train = ops.run("data.target.train", _generate, inp.target, "train")
        tgt_test = ops.run("data.target.test", _generate, inp.target, "test")
        shf_train = ops.run("data.shuffled.train", _shuffled, tgt_train, inp.shuffle)
        shf_test = ops.run("data.shuffled.test", _shuffled, tgt_test, inp.shuffle)
        pre = ops.run("pretrain", _train, state["pretrain"], (src_train, src_test))
    results = {}
    with clock("finetune"):
        for (pretrained, replica, shuffled), config in zip(FINETUNES, state["finetune"]):
            name = f"finetune.{'pt' if pretrained else 'rit'}.{'shuffled' if shuffled else 'target'}"
            datasets = (shf_train, shf_test) if shuffled else (tgt_train, tgt_test)
            results[name] = ops.run(name, _train, config, datasets, pre[0] if pretrained and pre else None)
        for which in ("target", "shuffled"):
            ops.run(f"relative_drop.{which}", _relative_drop, results[f"finetune.pt.{which}"], results[f"finetune.rit.{which}"])


def _relative_drop(pt, rit):
    drop = dataops.relative_accuracy_drop(pt[1].accuracy, rit[1].accuracy)
    return drop, {"relative_accuracy_drop": float(drop)}


# ---------------------------------------------------------------- analysis

PAIR_CHECKPOINTS = ("pt_a", "pt_b", "rit_a", "rit_b", "pretrained", "init_a", "init_b")


def pairs_setup(inp: Inputs, work: Path, clock: StageClock) -> dict:
    """Pre-train, fine-tune P-T and RI-T twice each, and save every model.

    Replica a and b differ in batch order (and, for RI-T, in the random init).
    """
    clock.time(warm_up, inp)
    src = clock.time(trainer.make_datasets, inp.source)
    tgt = clock.time(trainer.make_datasets, inp.target)
    pre, _, _ = clock.time(trainer.train, inp.pretrain_config(), datasets=src)
    ckpts = {"pretrained": pre}
    for replica, tag in ((0, "a"), (1, "b")):
        ckpts[f"pt_{tag}"] = clock.time(trainer.train, inp.finetune_config(True, replica), init_checkpoint=pre, datasets=tgt)[0]
        ckpts[f"rit_{tag}"] = clock.time(trainer.train, inp.finetune_config(False, replica), datasets=tgt)[0]
        init = clock.time(model.init_random, ARCH, rng.RngStream(inp.random_init_seed(replica)))
        ckpts[f"init_{tag}"] = trainer.Checkpoint(ARCH, init, 0, {}, "", "")
    paths = {}
    for name in PAIR_CHECKPOINTS:
        paths[name] = work / f"{name}.llck"
        clock.time(persistence.save_checkpoint, ckpts[name], paths[name])
    return {"paths": paths, "target": tgt}


def _load(paths: dict, names):
    loaded = {name: persistence.load_checkpoint(paths[name]) for name in names}
    return loaded, {name: digest(c.params.values) for name, c in loaded.items()}


def analysis_pipeline(inp: Inputs, state: dict, ops: Ops, clock: StageClock) -> None:
    s = inp.size
    train_ds, test_ds = state["target"]
    with clock("barrier_similarity_spectrum"):
        ck = ops.run("load", _load, state["paths"], PAIR_CHECKPOINTS)
        lambdas = landscape.lambda_grid(0.0, 1.0, s.barrier_points)
        for pair in (("pt_a", "pt_b"), ("rit_a", "rit_b")):
            ops.run(f"barrier.{pair[0]}-{pair[1]}", _barrier, ck[pair[0]], ck[pair[1]], lambdas, train_ds, test_ds)
        ops.run("similarity.pt-rit", _similarity, ck, test_ds, inp.variant)
        ops.run("mistakes.pt-rit", _mistakes, ck, test_ds)
        for module_name in ARCH.module_names():
            ops.run(f"rewind.{module_name}", _rewind, ck, module_name, train_ds, test_ds)
    crit_train = _head(train_ds, s.crit_train)
    crit_test = _head(test_ds, s.crit_test)
    with clock("criticality"):
        for module_name in CRITICALITY_MODULES:
            ops.run(f"criticality.{module_name}", _criticality, ck, module_name, inp, crit_train, crit_test)
    with clock("barrier_similarity_spectrum"):
        ops.run("spectrum.pt_a", _spectrum, ck)


def _head(ds: dataops.Dataset, n: int) -> dataops.Dataset:
    return dataops.Dataset(ds.images[:n], ds.labels[:n], ds.split, dict(ds.provenance))


def _barrier(a, b, lambdas, train_ds, test_ds):
    curve = landscape.barrier_curve(a, b, lambdas, {"target": (train_ds, test_ds)})
    outputs = {
        "height_loss": float(landscape.barrier_height(curve, "loss")),
        "height_acc": float(landscape.barrier_height(curve, "accuracy")),
        "test_acc_mid": float(curve.series("target", "test_acc")[len(lambdas) // 2]),
    }
    return curve, outputs


def _similarity(ck, test_ds, seed):
    rep = similarity.similarity_report(ck["pt_a"], ck["rit_a"], test_ds, seed=seed, init_a=ck["pretrained"], init_b=ck["init_a"])
    outputs = {f"cka.{m}": float(v) for m, (v, _) in rep.per_module_cka.items()}
    outputs.update({f"cka_degenerate.{m}": flag for m, (_, flag) in rep.per_module_cka.items()})
    outputs["total_l2"] = float(rep.total_l2)
    outputs.update({f"to_init_a.{m}": float(v) for m, v in rep.distance_to_init_a.items()})
    outputs.update({f"to_init_b.{m}": float(v) for m, v in rep.distance_to_init_b.items()})
    return rep, outputs


def _mistakes(ck, test_ds):
    p1 = trainer.evaluate(ck["pt_a"].params, ARCH, test_ds).predictions
    p2 = trainer.evaluate(ck["rit_a"].params, ARCH, test_ds).predictions
    table = similarity.mistake_table(p1, p2, test_ds.labels, group_by="class")
    outputs = {"predictions.pt_a": digest(p1), "predictions.rit_a": digest(p2)}
    outputs.update({f"counts.{r.group}": [r.g1, r.g2, r.common] for r in table.rows})
    return table, outputs


def _rewind(ck, module_name, train_ds, test_ds):
    row = criticality.rewind_probe(ck["pt_a"], ck["pretrained"], module_name, train_ds, test_ds)
    return row, {k: float(row[k]) for k in ("train_loss", "train_acc", "test_loss", "test_acc")}


def _criticality(ck, module_name, inp: Inputs, train_ds, test_ds):
    s = inp.size
    final = ck["pt_a"]
    epsilon = 1.0 - final.metrics["train_acc"] + 0.05
    cfg = criticality.CriticalityConfig(
        module_name=module_name, epsilon=epsilon, alpha_grid=s.crit_alphas,
        sigma_grid=s.crit_sigmas, noise_samples=s.crit_noise_samples,
    )
    cmap = criticality.criticality_map(final, ck["pretrained"], cfg, inp.stream(_STREAM_CRITICALITY), train_ds, test_ds)
    outputs = {
        "feasible": cmap.feasible.astype(int).tolist(),
        "mu": float(cmap.mu),
        "train_mean": float(cmap.train.mean()),
        "test_mean": float(cmap.test.mean()),
    }
    return cmap, outputs


def _spectrum(ck):
    rep = spectrum.network_spectrum(ck["pt_a"])
    ratio_sum, log_product = spectrum.norm_ratio_term(rep)
    outputs = {f"spectral.{m}": float(n["spectral"]) for m, n in rep.norms.items()}
    outputs.update({f"frobenius.{m}": float(n["frobenius"]) for m, n in rep.norms.items()})
    outputs["ratio_sum"] = float(ratio_sum)
    outputs["log_product"] = float(log_product)
    return rep, outputs


# ---------------------------------------------------------------- shared


def warm_up(inp: Inputs) -> None:
    """Fill the conv index caches and first-call paths before any timed operation."""
    params = model.init_random(ARCH, rng.RngStream(inp.variant))
    batch = np.zeros((64, *ARCH.input_shape), dtype=np.float32)
    model.backward(params, ARCH, batch, np.zeros(64, dtype=np.int64))
    model.forward(params, ARCH, np.zeros((256, *ARCH.input_shape), dtype=np.float32))


WORKLOADS = {
    "transfer": (transfer_setup, transfer_pipeline),
    "analysis": (pairs_setup, analysis_pipeline),
}
