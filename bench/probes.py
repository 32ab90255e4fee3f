"""Per-layer probes: fixed micro-measurements of single public calls.

The traced run executes the same probe suite on every workload, with inputs
made from the variant, so a probe metric compares across workloads and
commits. Times are medians over repeated calls. The check_basin memory
probes run under tracemalloc at small dimensions only: tracemalloc slows the
pure-Python RNG about twentyfold, which puts the full 12,266-dim vector out
of reach of one run.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from basinscope import basin, criticality, dataops, landscape, model, persistence, rng, similarity, spectrum, trainer

from workloads import ARCH, CRITICALITY_MODULES, SHUFFLE_BLOCK, SOURCE, TARGET, Inputs

GAUSSIAN_N = 12_266  # TINY4 parameter count
ALLOC_DIMS = (32, 128)
CHECK_SAMPLES = 100  # the floor check_basin accepts


class NetworkLoss:
    """The benchmark's basin loss: mean cross-entropy of the whole
    12,266-dim parameter vector on one fixed small target batch."""

    def __init__(self, index, images, labels):
        self.index = index
        self.images = images
        self.labels = labels
        self.calls = 0

    def __call__(self, w) -> float:
        self.calls += 1
        logits, _ = model.forward(model.ParamVector(np.asarray(w, dtype=np.float64), self.index), ARCH, self.images)
        return model.softmax_cross_entropy(logits, self.labels)[0]


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _checkpoint(params) -> trainer.Checkpoint:
    return trainer.Checkpoint(ARCH, params, 0, {}, "", "")


def run_probes(inp: Inputs, tracer, work) -> dict:
    s = inp.size
    m: dict[str, tuple[float, str]] = {}  # name -> (value, unit)
    gen = np.random.default_rng(inp.variant)
    images = gen.random((1000, *ARCH.input_shape), dtype=np.float32)
    labels = np.arange(1000) % ARCH.num_classes
    data = dataops.Dataset(images, labels, "train", {})
    params_a = model.init_random(ARCH, rng.RngStream(inp.variant, 1))
    params_b = model.init_random(ARCH, rng.RngStream(inp.variant, 2))
    ckpt_a, ckpt_b = _checkpoint(params_a), _checkpoint(params_b)

    # model and trainer
    for b in (64, 256):
        m[f"model.forward_ms.b{b}"] = (_median_ms(lambda: model.forward(params_a, ARCH, images[:b]), 10), "ms")
    m["model.backward_ms.b32"] = (_median_ms(lambda: model.backward(params_a, ARCH, images[:32], labels[:32]), 9), "ms")
    _, grad = model.backward(params_a, ARCH, images[:32], labels[:32])
    _, buf = model.sgd_step(params_a, grad, 0.05, None, 0.9, 1e-4)
    m["model.sgd_step_ms"] = (_median_ms(lambda: model.sgd_step(params_a, grad, 0.05, buf, 0.9, 1e-4), 21), "ms")
    m["trainer.evaluate_ms_per_1k"] = (_median_ms(lambda: trainer.evaluate(params_a, ARCH, data), 3), "ms")

    # rng
    m["rng.gaussian_ns_per_draw"] = (1e6 * _median_ms(lambda: rng.gaussian(rng.RngStream(inp.variant, 3), GAUSSIAN_N, 1.0), 3) / GAUSSIAN_N, "ns")
    with tracer.paused():  # a span would cost as much as this call
        m["rng.stream_us"] = (1e3 * _median_ms(lambda: rng.RngStream(inp.variant, 4).split(5, 6), 201), "us")
    m["rng.permutation_ms"] = (_median_ms(lambda: rng.RngStream(inp.variant, 7).permutation(s.n_source_train), 5), "ms")

    # dataops: per image
    n_render = 24
    for domain in (SOURCE, TARGET):
        spec = dataops.domain_spec(domain)
        m[f"dataops.render_ms.{domain}"] = (_median_ms(lambda: dataops.generate(spec, "train", n_render, inp.variant), 3) / n_render, "ms")
    small = dataops.Dataset(images[:64], labels[:64], "train", {})
    shuffle = dataops.ShuffleSpec(SHUFFLE_BLOCK, inp.variant)
    m["dataops.apply_shuffle_ms"] = (_median_ms(lambda: dataops.apply_shuffle(small, shuffle), 5) / len(small), "ms")

    # landscape, similarity, criticality: forward-only analyses
    train_256 = dataops.Dataset(images[:256], labels[:256], "train", {})
    test_256 = dataops.Dataset(images[256:512], labels[256:512], "test", {})
    lambdas = landscape.lambda_grid(0.0, 1.0, 3)
    point_ms = _median_ms(lambda: landscape.barrier_curve(ckpt_a, ckpt_b, lambdas, {"probe": (train_256, test_256)}), 3)
    m["landscape.barrier_point_ms"] = (point_ms / len(lambdas), "ms")
    m["similarity.report_s"] = (1e-3 * _median_ms(lambda: similarity.similarity_report(ckpt_a, ckpt_b, train_256, seed=inp.variant), 3), "s")
    crit_train = dataops.Dataset(images[:s.crit_train], labels[:s.crit_train], "train", {})
    crit_test = dataops.Dataset(images[256 : 256 + s.crit_test], labels[256 : 256 + s.crit_test], "test", {})
    noise = 3
    for module_name in CRITICALITY_MODULES:
        cfg = criticality.CriticalityConfig(module_name, epsilon=0.5, alpha_grid=(1.0,), sigma_grid=(0.1,), noise_samples=noise)
        cell_ms = _median_ms(
            lambda: criticality.criticality_map(ckpt_a, ckpt_b, cfg, rng.RngStream(inp.variant, 8), crit_train, crit_test), 3
        )
        m[f"criticality.cell_ms.{module_name}"] = (cell_ms / noise, "ms")

    # basin: the benchmark loss, one check_basin, and its allocation peak
    loss = NetworkLoss(params_a.index, images[: s.basin_batch], labels[: s.basin_batch])
    full = params_a.values.astype(np.float64)
    m["basin.loss_ms"] = (_median_ms(lambda: loss(full), 10), "ms")
    m.update(_check_basin_probes(inp, loss, params_a))
    m["basin.loss.calls"] = (loss.calls, "count")  # added to the traced pipeline's count

    # spectrum
    plan = {layer["name"]: layer for layer in ARCH.layer_plan()}
    for name in ("conv1", "conv2", "conv3"):
        kernel = params_a.get(f"{name}.weight")
        n = plan[name]["in_hw"][0]
        m[f"spectrum.conv_sv_ms.{name}"] = (_median_ms(lambda: spectrum.conv_singular_values(kernel, n), 1), "ms")
    m["spectrum.dense_sv_ms.fc1"] = (_median_ms(lambda: spectrum.dense_singular_values(params_a.get("fc1.weight")), 3), "ms")

    # persistence
    path = work / "probe.llck"
    m["persistence.save_checkpoint_ms"] = (_median_ms(lambda: persistence.save_checkpoint(ckpt_a, path), 11), "ms")
    m["persistence.load_checkpoint_ms"] = (_median_ms(lambda: persistence.load_checkpoint(path), 11), "ms")
    return m


def _check_basin_probes(inp: Inputs, loss: NetworkLoss, params: model.ParamVector) -> dict:
    """check_basin over the classifier slice with the network loss (timed),
    and over a quadratic loss under tracemalloc at two small dimensions."""
    span = params.module_slice("classifier")
    base = params.values.astype(np.float64)

    def classifier_loss(w):
        full = base.copy()
        full[span] = w
        return loss(full)

    ball = basin.BallSet(base[span], radius=1.0)
    start = time.perf_counter()
    basin.check_basin(ball, classifier_loss, 0.05, 0.5, CHECK_SAMPLES, rng.RngStream(inp.variant, 9))
    out = {"basin.check_s": (time.perf_counter() - start, "s")}

    for dim in ALLOC_DIMS:
        bowl = basin.BallSet(np.zeros(dim), radius=1.0)
        tracemalloc.start()
        try:
            basin.check_basin(bowl, lambda w: float(w @ w), 0.05, 0.5, CHECK_SAMPLES, rng.RngStream(inp.variant, 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out[f"basin.alloc_peak_mb.d{dim}"] = (peak / 2**20, "MB")
    return out
