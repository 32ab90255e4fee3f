import json
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from basinscope import model, trainer
from basinscope.dataops import Dataset
from basinscope.errors import DomainError, SizeError
from basinscope.model import (
    _TILE,
    TINY4,
    ArchDescriptor,
    ParamVector,
    _apply_layer,
    _conv_backward,
    _gather_patches,
    _module_input,
    _network_input,
    _nll,
    _patch_indices,
    _phase_indices,
    _run_layers,
    _weights,
    backward,
    build_index,
    forward,
    init_random,
    sgd_step,
    softmax_cross_entropy,
)
from basinscope.persistence import load_checkpoint, save_checkpoint
from basinscope.rng import RngStream, gaussian
from basinscope.trainer import EVAL_BATCH, _score_batches, evaluate

SMALL = ArchDescriptor(
    input_shape=(8, 8, 2),
    conv_blocks=((4, 3, 1), (6, 3, 2)),
    fc_widths=(12,),
    num_classes=5,
)


def xent_loss(params, arch, batch, labels):
    """Cross-entropy from raw forward logits; used by the FD oracle."""
    logits, _ = forward(params, arch, batch)
    z = logits.astype(np.float64)
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    return float(np.mean(lse - z[np.arange(len(labels)), labels]))


def relu_pattern(params, arch, batch):
    """Sign pattern of every ReLU; FD steps must not cross a kink."""
    _, acts = forward(params, arch, batch)
    return [a > 0 for _, a in acts[:-1]]


def fd_gradient_check(params, arch, batch, labels, grad, span, coord_rng, n_coords=100, eps=1e-3):
    """Worst relative FD-vs-analytic error over n_coords kink-free coordinates.

    Central differences are invalid where the +/-eps step flips a ReLU, so
    those coordinates are redrawn (the loss is piecewise smooth; the analytic
    gradient is only defined away from the kinks).
    """
    checked = 0
    worst = 0.0
    attempts = 0
    base_pattern = relu_pattern(params, arch, batch)
    while checked < n_coords:
        attempts += 1
        assert attempts < 20 * n_coords, "too many kink coordinates"
        idx = span.start + coord_rng.randint_below(span.stop - span.start)
        up = params.copy()
        up.values[idx] += eps
        down = params.copy()
        down.values[idx] -= eps
        if not all(
            np.array_equal(pu, pb) and np.array_equal(pd, pb)
            for pu, pd, pb in zip(relu_pattern(up, arch, batch), relu_pattern(down, arch, batch), base_pattern)
        ):
            continue
        fd = (xent_loss(up, arch, batch, labels) - xent_loss(down, arch, batch, labels)) / (2 * eps)
        denom = max(abs(fd), abs(grad.values[idx]), 1e-4)
        worst = max(worst, abs(fd - grad.values[idx]) / denom)
        checked += 1
    return worst


def rand_batch(arch, n, seed):
    rng = RngStream(seed, 55)
    h, w, c = arch.input_shape
    imgs = gaussian(rng, n * h * w * c, 1.0).reshape(n, h, w, c).astype(np.float32)
    labels = np.array([rng.randint_below(arch.num_classes) for _ in range(n)])
    return imgs, labels


class TestArch:
    def test_json_roundtrip(self):
        assert ArchDescriptor.from_json(TINY4.to_json()) == TINY4

    @pytest.mark.parametrize(
        "text", ['{"input_shape": [16, 16, 3]}', "nope", "[1, 2]", '{"input_shape": 16, "conv_blocks": [], "fc_widths": [], "num_classes": 2}'],
        ids=["missing_fields", "not_json", "not_object", "int_shape"],
    )
    def test_from_json_of_no_descriptor_raises_domain_error(self, text):
        """These raised a bare TypeError or JSONDecodeError."""
        with pytest.raises(DomainError, match="not an architecture's JSON object"):
            ArchDescriptor.from_json(text)

    def test_from_json_keeps_the_descriptor_errors(self):
        arch = {**json.loads(TINY4.to_json()), "num_classes": 1}
        with pytest.raises(SizeError, match="at least two classes"):
            ArchDescriptor.from_json(json.dumps(arch))

    def test_json_bytes_pinned(self):
        assert TINY4.to_json() == (
            '{"conv_blocks": [[8, 3, 1], [16, 3, 2], [16, 3, 2]], "fc_widths": [32], '
            '"input_shape": [16, 16, 3], "num_classes": 10}'
        )

    def test_any_size_its_strides_divide_builds(self):
        """The paper's 224x224 inputs build; a stride must still divide its
        layer's input size."""
        wide = ArchDescriptor((224, 224, 3), ((8, 3, 1), (16, 3, 2)), (32,), 10)
        assert [layer["in_hw"] for layer in wide.layer_plan()[:2]] == [(224, 224), (224, 224)]
        assert wide.layer_plan()[2]["fan_in"] == 112 * 112 * 16
        with pytest.raises(SizeError, match="stride 5 must divide"):
            ArchDescriptor((12, 12, 3), ((8, 3, 5),), (16,), 10)

    def test_twelve_by_twelve_runs_trains_and_saves(self, tmp_path):
        """A 12x12 network with strides 1, 3 and 2: forward's logits have
        evaluate's bits, backward matches central differences, and a
        checkpoint round-trips through the LLCK file."""
        arch = ArchDescriptor((12, 12, 2), ((4, 3, 1), (6, 3, 3), (6, 3, 2)), (8,), 3)
        init = with_biases(init_random(arch, RngStream(90)), 91)
        params = ParamVector(init.values.astype(np.float64), init.index)
        batch, labels = rand_batch(arch, 2 * _TILE + 3, 92)
        logits, _ = forward(params, arch, batch)
        got = evaluate(params, arch, Dataset(batch, labels, "test", {}))
        want = _score_batches(labels, arch.num_classes, [logits])
        assert got.loss == want.loss and np.array_equal(got.predictions, want.predictions)
        loss, grad = backward(params, arch, batch[:4], labels[:4])
        assert abs(loss - xent_loss(params, arch, batch[:4], labels[:4])) < 1e-9
        for module in arch.module_names():
            span = params.module_slice(module)
            assert fd_gradient_check(params, arch, batch[:4], labels[:4], grad, span, RngStream(93), n_coords=20) < 1e-2, module
        ckpt = trainer.Checkpoint(arch, init, 0, {}, "", "")
        save_checkpoint(ckpt, tmp_path / "twelve.llck")
        assert load_checkpoint(tmp_path / "twelve.llck").equals(ckpt)

    def test_module_names(self):
        assert TINY4.module_names() == ["conv1", "conv2", "conv3", "fc1", "classifier"]

    @pytest.mark.parametrize("block", [(4, 2, 1), (4, 4, 2)], ids=["k2s1", "k4s2"])
    def test_even_kernel_rejected(self, block):
        # circular same-padding centres only odd kernels; even ones gave
        # wrong input gradients
        with pytest.raises(SizeError):
            ArchDescriptor((8, 8, 2), ((3, 3, 1), block), (6,), 3)


class TestParamVector:
    def test_index_contiguous_and_covering(self):
        index = build_index(TINY4)
        offset = 0
        for e in index:
            assert e.offset == offset
            assert e.length == int(np.prod(e.shape))
            offset += e.length
        params = ParamVector.zeros(TINY4)
        assert params.size == offset

    def test_index_built_once_per_arch(self):
        # ParamVector.zeros and every checkpoint load read the index; it is built once
        assert build_index(TINY4) is build_index(ArchDescriptor.from_json(TINY4.to_json()))
        assert ParamVector.zeros(TINY4).index is build_index(TINY4)

    def test_get_set_roundtrip_bit_exact(self):
        params = init_random(TINY4, RngStream(3))
        rebuilt = ParamVector.zeros(TINY4)
        for e in params.index:
            rebuilt.set(e.name, params.get(e.name))
        assert rebuilt.equals(params)

    def test_unknown_module_rejected(self):
        params = ParamVector.zeros(TINY4)
        with pytest.raises(DomainError):
            params.module_slice("conv9")

    def test_unknown_entry_rejected(self):
        params = ParamVector.zeros(TINY4)
        with pytest.raises(DomainError, match="conv1.gamma"):
            params.get("conv1.gamma")

    @pytest.mark.parametrize("shape", ["short", "2-D"])
    def test_values_not_covering_the_index_rejected(self, shape):
        index = build_index(TINY4)
        total = index[-1].offset + index[-1].length
        values = np.zeros(total - 1) if shape == "short" else np.zeros((2, total // 2))
        with pytest.raises(SizeError, match=re.escape(f"values of shape {values.shape} do not match the index's ({total},)")):
            ParamVector(values, index)

    @pytest.mark.parametrize(
        "array", [np.zeros(5), np.zeros((3, 3, 3, 8, 1, 2)), np.ones((8, 27))], ids=["short", "long", "same_size_other_shape"]
    )
    def test_set_of_another_size_rejected(self, array):
        """An array of the entry's size in another shape, such as an
        (Cout, k*k*Cin) conv weight, would be written in the wrong order."""
        params = ParamVector.zeros(TINY4)
        with pytest.raises(SizeError, match=re.escape(f"conv1.weight takes shape (3, 3, 3, 8), got an array of shape {array.shape}")):
            params.set("conv1.weight", array)
        assert not params.values.any()

    @pytest.mark.parametrize(
        "call",
        [
            lambda params, batch, labels: forward(params, TINY4, batch),
            lambda params, batch, labels: backward(params, TINY4, batch, labels),
            lambda params, batch, labels: evaluate(params, TINY4, Dataset(batch, labels, "test", {})),
        ],
        ids=["forward", "backward", "evaluate"],
    )
    def test_params_of_another_arch_rejected(self, call):
        # these ran, and computed the 16-wide network, before the check
        narrow = ArchDescriptor(TINY4.input_shape, TINY4.conv_blocks, (16,), TINY4.num_classes)
        batch, labels = rand_batch(TINY4, 4, 42)
        with pytest.raises(DomainError, match="index table"):
            call(init_random(narrow, RngStream(41)), batch, labels)


class TestInit:
    def test_deterministic(self):
        a = init_random(TINY4, RngStream(11))
        b = init_random(TINY4, RngStream(11))
        assert a.equals(b)

    def test_he_variance(self):
        # enough weights per conv layer to estimate the variance within 10%
        arch = ArchDescriptor((16, 16, 32), ((40, 3, 1), (40, 3, 2)), (16,), 10)
        params = init_random(arch, RngStream(12))
        for name, fan_in in (("conv1.weight", 3 * 3 * 32), ("conv2.weight", 3 * 3 * 40)):
            w = params.get(name)
            assert w.size >= 1e4
            assert abs(w.var() / (2.0 / fan_in) - 1.0) < 0.10

    def test_biases_zero(self):
        params = init_random(TINY4, RngStream(13))
        for e in params.index:
            if e.name.endswith(".bias"):
                assert np.all(params.get(e.name) == 0)

    def test_classifier_weight_uniform_bounded(self):
        params = init_random(TINY4, RngStream(14))
        w = params.get("classifier.weight")
        bound = 1.0 / np.sqrt(w.shape[1])
        assert np.all(np.abs(w) <= bound)
        assert w.std() > 0

    @pytest.mark.parametrize("arch", [TINY4, SMALL], ids=["tiny4", "small"])
    def test_matches_per_kind_oracle_bit_for_bit(self, arch):
        """One He-normal branch for conv and fc keeps the draws of the
        per-kind code it replaced."""
        init_rng = RngStream(15).split(0x494E4954)
        want = ParamVector.zeros(arch)
        for layer in arch.layer_plan():
            name = layer["name"]
            if layer["kind"] == "conv":
                fan_in = layer["kernel"] * layer["kernel"] * layer["cin"]
                w = gaussian(init_rng, fan_in * layer["cout"], np.sqrt(2.0 / fan_in))
            elif layer["kind"] == "fc":
                w = gaussian(init_rng, layer["fan_out"] * layer["fan_in"], np.sqrt(2.0 / layer["fan_in"]))
            else:
                w = (2.0 * init_rng.uniform(layer["fan_out"] * layer["fan_in"]) - 1.0) * (1.0 / np.sqrt(layer["fan_in"]))
            want.set(f"{name}.weight", w)
        assert init_random(arch, RngStream(15)).equals(want)


class TestForward:
    def test_zero_weights_zero_logits(self):
        params = ParamVector.zeros(TINY4)
        batch, _ = rand_batch(TINY4, 3, 1)
        logits, _ = forward(params, TINY4, batch)
        assert np.all(logits == 0)
        assert logits.shape == (3, 10)

    def test_batch_independence(self):
        # BLAS kernels differ across batch shapes, so allow rounding-level slack
        params = init_random(TINY4, RngStream(15))
        batch, _ = rand_batch(TINY4, 2, 2)
        both, _ = forward(params, TINY4, batch)
        one, _ = forward(params, TINY4, batch[:1])
        assert np.allclose(one[0], both[0], rtol=1e-10, atol=1e-12)

    def test_forward_deterministic(self):
        params = init_random(TINY4, RngStream(15))
        batch, _ = rand_batch(TINY4, 4, 2)
        a, acts_a = forward(params, TINY4, batch)
        b, acts_b = forward(params, TINY4, batch)
        assert np.array_equal(a, b)
        assert all(np.array_equal(x[1], y[1]) for x, y in zip(acts_a, acts_b))

    def test_shape_mismatch_rejected(self):
        params = init_random(TINY4, RngStream(16))
        with pytest.raises(SizeError):
            forward(params, TINY4, np.zeros((2, 8, 8, 3), dtype=np.float32))

    def test_activation_names_match_modules(self):
        params = init_random(TINY4, RngStream(17))
        batch, _ = rand_batch(TINY4, 2, 3)
        _, acts = forward(params, TINY4, batch)
        assert [n for n, _ in acts] == TINY4.module_names()

    def test_module_edit_causality(self):
        # replacing module i's slice changes activations at i and later only
        params = init_random(TINY4, RngStream(18))
        batch, _ = rand_batch(TINY4, 2, 4)
        _, base = forward(params, TINY4, batch)
        edited = params.copy()
        edited.values[edited.module_slice("conv2")] *= -1.5
        _, changed = forward(edited, TINY4, batch)
        names = TINY4.module_names()
        cut = names.index("conv2")
        for i, name in enumerate(names):
            same = np.array_equal(base[i][1], changed[i][1])
            if i < cut:
                assert same, f"{name} should be untouched"
            elif i == cut:
                assert not same


def core_records(params, arch, x):
    """backward's records: the core's (layer, x_in, w, patches, post) per
    layer on x, the network input."""
    records = []
    _run_layers([params], arch, x, records=records)
    return records


def untiled_records(params, arch, x):
    """The untiled loop that backward's records once came from: each layer
    on the whole batch at once, with whole-batch gathers and GEMMs."""
    records = []
    for layer in arch.layer_plan():
        w, b = _weights(params, layer)
        if layer["kind"] == "conv":
            x_in, patches = x, _gather_patches(x, layer["kernel"], layer["stride"])
        else:
            x_in, patches = x.reshape(x.shape[0], -1), None
        x = _apply_layer(layer, x_in if patches is None else patches, w, b)
        records.append((layer, x_in, w, patches, x))
    return records


def traced_peak(fn, *args):
    """fn(*args)'s tracemalloc peak in bytes; its result is dropped."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLayerByLayerForward:
    """forward keeps only what it returns: the logits and float32 activations."""

    @pytest.mark.parametrize("arch", [TINY4, SMALL], ids=["tiny4", "small"])
    @pytest.mark.parametrize("n", [1, 5, _TILE, _TILE + 1, 256])
    def test_equals_keep_records_bit_for_bit(self, arch, n):
        """forward's outputs are backward's records, except where the core
        reassociates: SMALL's conv1 at 256 images (REASSOCIATING), whose
        oracle is the core itself, layer by layer. Up to _TILE images are
        one conv tile, the same GEMMs as the records' whole-batch pass."""
        params = with_biases(init_random(arch, RngStream(23)), 24)
        batch, _ = rand_batch(arch, n, 25)
        x0 = _network_input(arch, batch)
        records = core_records(params, arch, x0)
        if arch is SMALL and n == 256:
            posts = [_run_layers([params], arch, x0, 0, m + 1)[0] for m in range(len(records))]
        else:
            posts = [post for *_, post in records]
        logits, acts = forward(params, arch, batch)
        assert np.array_equal(logits, posts[-1])
        assert np.array_equal(_run_layers([params], arch, x0)[0], posts[-1])
        assert [name for name, _ in acts] == [layer["name"] for layer, *_ in records]
        for (name, act), post in zip(acts, posts):
            assert act.dtype == np.float32 and np.array_equal(act, post.astype(np.float32)), name

    def test_peak_below_keep_records_at_batch_256(self):
        params = init_random(TINY4, RngStream(26))
        batch, _ = rand_batch(TINY4, 256, 27)
        kept = traced_peak(lambda: core_records(params, TINY4, _network_input(TINY4, batch)))
        layered = traced_peak(forward, params, TINY4, batch)
        assert layered < kept

    def test_peak_is_the_tiled_working_set_at_batch_256(self):
        """The peak is the network input, the float32 activations, conv1's
        working set on one tile (patches and output), and the last conv's
        float64 output, as tiles and joined; whole-batch conv1 patches (the
        untiled loop's peak) would add 14 MB on top."""
        params = init_random(TINY4, RngStream(26))
        batch, _ = rand_batch(TINY4, 256, 27)
        h, w, c = TINY4.input_shape
        plan = TINY4.layer_plan()
        sizes = [
            256 * (layer["in_hw"][0] // layer["stride"]) * (layer["in_hw"][1] // layer["stride"]) * layer["cout"]
            if layer["kind"] == "conv"
            else 256 * layer["fan_out"]
            for layer in plan
        ]
        conv1 = plan[0]
        tile = 8 * _TILE * h * w * (conv1["kernel"] ** 2 * c + conv1["cout"])
        joined = 2 * 8 * sizes[len(TINY4.conv_blocks) - 1]
        working_set = 8 * 256 * h * w * c + 4 * sum(sizes) + tile + joined
        assert traced_peak(forward, params, TINY4, batch) < 1.1 * working_set


class TestForwardCore:
    @pytest.mark.parametrize("arch", [TINY4, SMALL], ids=["tiny4", "small"])
    def test_suffix_from_every_module_matches_forward(self, arch):
        """Running the core from module m on the prefix's output (with or
        without the cached conv patches) gives forward's logits bit for bit,
        and so does the logits-only run of the whole network."""
        params = init_random(arch, RngStream(19))
        batch, _ = rand_batch(arch, 5, 6)
        want, _ = forward(params, arch, batch)
        x0 = _network_input(arch, batch)
        assert np.array_equal(_run_layers([params], arch, x0)[0], want)
        for m, name in enumerate(arch.module_names()):
            prefix = _run_layers([params], arch, x0, 0, m)[0]
            assert isinstance(prefix, np.ndarray)
            assert np.array_equal(_run_layers([params], arch, prefix, m)[0], want), name
            x, patches = _module_input(params, arch, batch, m)
            if name.startswith(("fc", "classifier")):
                assert np.array_equal(x, prefix) and patches is None, name
            else:
                layer = arch.layer_plan()[m]
                assert x is None and np.array_equal(patches, _gather_patches(prefix, layer["kernel"], layer["stride"])), name
            assert np.array_equal(_run_layers([params], arch, x, m, patches=patches)[0], want), name
            assert np.array_equal(_run_layers([params], arch, prefix, m, patches=patches)[0], want), name

    def test_keep_builds_one_record_per_module(self):
        """One (layer, x_in, w, patches, post) record per module: each
        layer's input is the previous output (flattened into a dense layer),
        its float64 weight, patches for conv layers only, and an output equal
        to the out-of-place affine map plus bias, through a ReLU on every
        layer but the classifier; post > 0 is the ReLU's mask pre > 0."""
        params = init_random(TINY4, RngStream(19))
        batch, _ = rand_batch(TINY4, 2, 7)
        x0 = _network_input(TINY4, batch)
        records = core_records(params, TINY4, x0)
        assert [layer["name"] for layer, *_ in records] == TINY4.module_names()
        prev = x0
        for layer, x_in, w, patches, post in records:
            name = layer["name"]
            b = params.get(f"{name}.bias").astype(np.float64)
            assert np.array_equal(x_in, prev.reshape(x_in.shape)), name
            assert (x_in.ndim == 4) == (layer["kind"] == "conv"), name
            assert w.dtype == np.float64 and np.array_equal(w, params.get(f"{name}.weight")), name
            assert (patches is None) == (layer["kind"] != "conv"), name
            if layer["kind"] == "conv":
                assert np.array_equal(patches, _gather_patches(x_in, layer["kernel"], layer["stride"])), name
                pre = (patches.reshape(-1, w[..., 0].size) @ w.reshape(-1, layer["cout"])).reshape(post.shape) + b
            else:
                pre = x_in @ w.T + b
            assert np.array_equal(post, pre if layer["kind"] == "classifier" else np.maximum(pre, 0.0)), name
            if layer["kind"] != "classifier":
                assert np.array_equal(post > 0, pre > 0), name
            prev = post
        assert np.array_equal(prev, forward(params, TINY4, batch)[0])

    @pytest.mark.parametrize("arch", [TINY4, SMALL], ids=["tiny4", "small"])
    def test_row_wide_bias_add_matches_broadcast_bit_for_bit(self, arch):
        """_apply_layer adds _weights' bias row to the output seen as rows of
        OW*Cout values; the broadcast form np.maximum(flat @ w + b, 0) (no
        ReLU on the classifier) is the oracle, sign bits included. Input and
        bias hold +0.0 and -0.0, and the first image is all zeros, so every
        layer's output has zeros (the classifier's where its bias is one)."""
        rng = RngStream(56)
        params = with_biases(init_random(arch, rng), 57)
        for e in params.index:
            if e.name.endswith(".bias"):
                b = params.get(e.name)
                b[::3], b[1::3] = 0.0, -0.0
                params.set(e.name, b)
        for layer in arch.layer_plan():
            name = layer["name"]
            features = (*layer["in_hw"], layer["cin"]) if layer["kind"] == "conv" else (layer["fan_in"],)
            x = gaussian(rng, 3 * math.prod(features), 1.0).reshape(3, *features)
            x[x < -0.5], x[x > 0.5] = 0.0, -0.0
            x[0] = np.where(np.arange(x[0].size).reshape(x[0].shape) % 2, 0.0, -0.0)
            w, brow = _weights(params, layer)
            b = params.get(f"{name}.bias").astype(np.float64)
            if layer["kind"] == "conv":
                given = _gather_patches(x, layer["kernel"], layer["stride"])
                flat, wmat = oracle_patches(x, layer["kernel"], layer["stride"]).reshape(-1, w[..., 0].size), w.reshape(-1, layer["cout"])
            else:
                given, flat, wmat = x, x, w.T
            got = _apply_layer(layer, given, w, brow)
            want = flat @ wmat + b
            if layer["kind"] != "classifier":
                want = np.maximum(want, 0.0)
            want = want.reshape(got.shape)
            assert np.array_equal(got, want), name
            assert np.array_equal(np.signbit(got), np.signbit(want)), name
            assert np.any(got == 0), name

    def test_network_input_centers_in_float64(self):
        batch, _ = rand_batch(TINY4, 3, 8)
        x = _network_input(TINY4, batch)
        assert x.dtype == np.float64
        assert np.array_equal(x, batch.astype(np.float64) - 0.5)
        assert np.array_equal(_network_input(TINY4, batch[:1]), x[:1])
        with pytest.raises(SizeError):
            _network_input(TINY4, batch[0])  # one image is passed as a batch of one


def conv_gemm(patches, w):
    """Bias-free conv output (B, OH, OW, Cout) of gathered (B, OH, OW, k,
    k, Cin) patches: one GEMM of their (B*OH*OW, k*k*Cin) view."""
    cout = w.shape[-1]
    return (patches.reshape(-1, w.size // cout) @ w.reshape(-1, cout)).reshape(patches.shape[:3] + (cout,))


def single_pass(params, arch, x, start=0, stop=None, patches=None):
    """The untiled logits-only loop: each layer's affine map, bias and ReLU
    on the whole batch at once."""
    for layer in arch.layer_plan()[start:stop]:
        name = layer["name"]
        w = params.get(f"{name}.weight").astype(np.float64)
        b = params.get(f"{name}.bias").astype(np.float64)
        if layer["kind"] == "conv":
            out = conv_gemm(_gather_patches(x, layer["kernel"], layer["stride"]) if patches is None else patches, w)
        else:
            out = x.reshape(x.shape[0], -1) @ w.T
        patches = None
        out += b
        if layer["kind"] != "classifier":
            np.maximum(out, 0.0, out=out)
        x = out
    return x


def with_biases(params, seed):
    """params with N(0, 0.1^2) biases, as a trained network has."""
    out = params.copy()
    rng = RngStream(seed)
    for e in out.index:
        if e.name.endswith(".bias"):
            out.set(e.name, gaussian(rng, e.length, 0.1))
    return out


# Conv shapes whose GEMM rows change bits with the row count on OpenBLAS
# 0.3.31 (2-4 or 9-12 output channels): SMALL's conv1 and 16x16 convs.
REASSOCIATING = [SMALL] + [
    ArchDescriptor(input_shape=(16, 16, 3), conv_blocks=((cout, 3, 1),), fc_widths=(4,), num_classes=2)
    for cout in (2, 4, 12)
]


def arch_id(arch):
    """Input shape and first conv's output count, e.g. 16x16x3o4."""
    return "x".join(map(str, arch.input_shape)) + f"o{arch.conv_blocks[0][0]}"


class TestTiledCore:
    """The forward core runs the conv layers over tiles of _TILE images;
    the single-pass loop is the oracle."""

    @pytest.mark.parametrize("n", [1, _TILE - 1, _TILE, _TILE + 1, 256, 300])
    def test_tiny4_matches_single_pass_from_every_module(self, n):
        params = with_biases(init_random(TINY4, RngStream(41)), 42)
        batch, _ = rand_batch(TINY4, n, 43)
        x0 = _network_input(TINY4, batch)
        for m, name in enumerate(TINY4.module_names()):
            x = _run_layers([params], TINY4, x0, 0, m)[0]
            given, patches = _module_input(params, TINY4, batch, m)
            assert np.array_equal(x, single_pass(params, TINY4, x0, 0, m)), name
            want = single_pass(params, TINY4, x, m)
            assert np.array_equal(_run_layers([params], TINY4, x, m)[0], want), name
            assert np.array_equal(_run_layers([params], TINY4, given, m, patches=patches)[0], want), name

    @pytest.mark.parametrize("arch", [TINY4, SMALL], ids=["tiny4", "small"])
    @pytest.mark.parametrize("n", [1, _TILE, _TILE + 1, 2 * _TILE + 1, 256, 300])
    @pytest.mark.parametrize("k", [1, 3])
    def test_pass_equals_its_tiles_run_one_by_one(self, arch, n, k):
        """Each tile's conv outputs are those of a pass on that tile's images
        alone, and the dense layers run once on the joined last conv output:
        logits and float32 activations, bit for bit, even where tiling
        reassociates (SMALL's conv1). From the network input and from conv2,
        each with and without given patches, and from given patches alone."""
        vectors = [with_biases(init_random(arch, RngStream(70, v)), 71 + v) for v in range(k)]
        batch, _ = rand_batch(arch, n, 72)
        x0 = _network_input(arch, batch)
        conv1 = arch.layer_plan()[0]
        x1 = _run_layers([vectors[0]], arch, x0, 0, 1)[0]
        cached, patches1 = _module_input(vectors[0], arch, batch, 1)
        patches0 = _gather_patches(x0, conv1["kernel"], conv1["stride"])
        convs = len(arch.conv_blocks)
        cases = [(x0, 0, None), (x0, 0, patches0), (None, 0, patches0), (x1, 1, None), (x1, 1, patches1), (cached, 1, patches1)]
        for x, start, given in cases:
            acts = []
            got = _run_layers(vectors, arch, x, start, patches=given, acts=acts)
            tiles = []
            for i in range(0, n, _TILE):
                rows = slice(i, i + _TILE)
                tile_acts = []
                tile_x, tile_given = (None if x is None else x[rows]), (None if given is None else given[rows])
                tiles.append((_run_layers(vectors, arch, tile_x, start, convs, patches=tile_given, acts=tile_acts), tile_acts))
            for v, params in enumerate(vectors):
                joined = np.concatenate([outs[v] for outs, _ in tiles])
                dense_acts = []
                assert np.array_equal(got[v], _run_layers([params], arch, joined, convs, acts=dense_acts)[0])
                want = [(name, np.concatenate([tile_acts[v][j][1] for _, tile_acts in tiles])) for j, (name, _) in enumerate(tiles[0][1][v])]
                want += dense_acts[0]
                assert [name for name, _ in acts[v]] == [name for name, _ in want]
                for (name, act), (_, expected) in zip(acts[v], want):
                    assert act.dtype == np.float32 and np.array_equal(act, expected), name

    @pytest.mark.parametrize("length", [0, 289, 297])
    def test_given_patches_of_another_batch_length_rejected(self, length):
        """Patches given beside an input of 296 images must hold 296 images:
        with 289 the last tile's one image would be broadcast over its eight
        rows, and with 297 the extra image would be dropped, each without an
        error. The next call is whole."""
        vectors = [init_random(TINY4, RngStream(73, v)) for v in range(2)]
        x = _network_input(TINY4, rand_batch(TINY4, 296, 74)[0])
        conv1 = TINY4.layer_plan()[0]
        patches = _gather_patches(_network_input(TINY4, rand_batch(TINY4, 297, 74)[0]), conv1["kernel"], conv1["stride"])
        want = _run_layers(vectors, TINY4, x)
        with pytest.raises(SizeError, match="patches"):
            _run_layers(vectors, TINY4, x, patches=patches[:length])
        for got, expected in zip(_run_layers(vectors, TINY4, x), want):
            assert np.array_equal(got, expected)

    def test_evaluate_matches_single_pass(self):
        """300 images: a full and a partial evaluation batch, both tiled."""
        params = with_biases(init_random(TINY4, RngStream(44)), 45)
        images, labels = rand_batch(TINY4, 300, 46)
        got = evaluate(params, TINY4, Dataset(images, labels, "test", {}))
        logits = (
            single_pass(params, TINY4, _network_input(TINY4, images[i : i + EVAL_BATCH]))
            for i in range(0, len(images), EVAL_BATCH)
        )
        want = _score_batches(labels, TINY4.num_classes, logits)
        assert got.loss == want.loss
        assert np.array_equal(got.predictions, want.predictions)

    @pytest.mark.parametrize("n", [1, _TILE - 1, _TILE, _TILE + 1, 256, 300])
    def test_tiny4_forward_matches_single_pass(self, n):
        params = with_biases(init_random(TINY4, RngStream(50)), 51)
        batch, _ = rand_batch(TINY4, n, 52)
        x0 = _network_input(TINY4, batch)
        logits, acts = forward(params, TINY4, batch)
        assert np.array_equal(logits, single_pass(params, TINY4, x0))
        for m, (name, act) in enumerate(acts):
            assert np.array_equal(act, single_pass(params, TINY4, x0, 0, m + 1).astype(np.float32)), name

    @pytest.mark.parametrize("arch", [TINY4] + REASSOCIATING, ids=arch_id)
    def test_forward_equals_core_and_evaluate(self, arch, monkeypatch):
        """forward is the core: its logits are the whole core's and each
        evaluation batch's, and activation m is the core's layers [0, m]."""
        params = with_biases(init_random(arch, RngStream(53)), 54)
        images, labels = rand_batch(arch, 300, 55)
        x0 = _network_input(arch, images)
        logits, acts = forward(params, arch, images)
        assert np.array_equal(logits, _run_layers([params], arch, x0)[0])
        for m, (name, act) in enumerate(acts):
            assert np.array_equal(act, _run_layers([params], arch, x0, 0, m + 1)[0].astype(np.float32)), name
        monkeypatch.setattr(trainer, "_score_batches", lambda labels, num_classes, batches: list(batches))
        batches = evaluate(params, arch, Dataset(images, labels, "test", {}))
        assert len(batches) == 2
        for i, z in enumerate(batches):
            assert np.array_equal(z, forward(params, arch, images[i * EVAL_BATCH : (i + 1) * EVAL_BATCH])[0])

    @pytest.mark.parametrize("arch", REASSOCIATING, ids=arch_id)
    def test_narrow_convs_within_reassociation_bound(self, arch):
        """Where tiling changes a conv's bits, each output is still its
        k*k*Cin dot product plus bias, summed in another order: within
        2*gamma_K of the sum of the terms' magnitudes, K = k*k*Cin + 1.

        The core's tiled layer is checked on the single pass's input, and
        forward's float32 activation on the core's own input: rounding to
        float32 is monotone, so it lies between the roundings of the
        bound's ends."""
        params = with_biases(init_random(arch, RngStream(47)), 48)
        batch, _ = rand_batch(arch, 300, 49)
        x = core = _network_input(arch, batch)
        _, acts = forward(params, arch, batch)

        def bound(m, layer, x):
            """The single pass of layer m on x and its 2*gamma_K bound."""
            name = layer["name"]
            w = params.get(f"{name}.weight").astype(np.float64)
            b = params.get(f"{name}.bias").astype(np.float64)
            want = single_pass(params, arch, x, m, m + 1)
            n_terms = w[..., 0].size + 1
            gamma = n_terms * 2.0**-53 / (1 - n_terms * 2.0**-53)
            patches = np.abs(_gather_patches(x, layer["kernel"], layer["stride"]))
            magnitude = (patches.reshape(-1, n_terms - 1) @ np.abs(w).reshape(n_terms - 1, -1)).reshape(want.shape) + np.abs(b)
            return want, 2 * gamma * magnitude

        for m, layer in enumerate(arch.layer_plan()):
            if layer["kind"] != "conv":
                break
            name = layer["name"]
            want, slack = bound(m, layer, x)
            assert np.all(np.abs(_run_layers([params], arch, x, m, m + 1)[0] - want) <= slack), name
            x = want
            want, slack = bound(m, layer, core)
            act = acts[m][1]
            assert np.all(((want - slack).astype(np.float32) <= act) & (act <= (want + slack).astype(np.float32))), name
            core = _run_layers([params], arch, core, m, m + 1)[0]


class TestSharedTiles:
    """Several parameter vectors on one input share each tile's patches;
    each vector's outputs are its one-vector pass's, bit for bit."""

    @pytest.mark.parametrize("arch", [TINY4, SMALL], ids=["tiny4", "small"])
    @pytest.mark.parametrize("n", [1, 13, 256])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_shared_pass_equals_one_vector_passes(self, arch, n, k):
        """From the network input (start 0), and from conv2 with and without
        its cached patches; the float32 activations too."""
        vectors = [with_biases(init_random(arch, RngStream(60, v)), 61 + v) for v in range(k)]
        batch, _ = rand_batch(arch, n, 62)
        x0 = _network_input(arch, batch)
        x1 = _run_layers([vectors[0]], arch, x0, 0, 1)[0]
        cached, patches = _module_input(vectors[0], arch, batch, 1)
        for x, start, given in ((x0, 0, None), (x1, 1, None), (x1, 1, patches), (cached, 1, patches)):
            acts = []
            shared = _run_layers(vectors, arch, x, start, patches=given, acts=acts)
            assert len(shared) == len(acts) == k
            for params, logits, vector_acts in zip(vectors, shared, acts):
                alone = []
                assert np.array_equal(logits, _run_layers([params], arch, x, start, patches=given, acts=alone)[0])
                assert [name for name, _ in vector_acts] == [name for name, _ in alone[0]]
                for (name, act), (_, want) in zip(vector_acts, alone[0]):
                    assert act.dtype == np.float32 and np.array_equal(act, want), name

    @pytest.mark.parametrize("arch", [TINY4, SMALL], ids=["tiny4", "small"])
    def test_nan_vector_leaves_the_others_unchanged(self, arch):
        vectors = [with_biases(init_random(arch, RngStream(63, v)), 64 + v) for v in range(3)]
        broken = vectors[1].values.copy()
        broken[vectors[1].entry("conv1.weight").offset] = np.nan
        vectors[1] = ParamVector(broken, vectors[1].index)
        x = _network_input(arch, rand_batch(arch, 13, 65)[0])
        shared = _run_layers(vectors, arch, x)
        for params, logits in zip(vectors, shared):
            assert np.array_equal(logits, _run_layers([params], arch, x)[0], equal_nan=True)
        assert np.isnan(shared[1]).any() and not np.isnan(shared[0]).any() and not np.isnan(shared[2]).any()

    def test_concurrent_callers_get_their_one_thread_results(self):
        """Four callers at once, more than the CPUs, with the interpreter
        switching threads every microsecond: each gets its one-thread
        result, so no tile is lost or written into another call's rows."""
        vectors = [with_biases(init_random(TINY4, RngStream(79)), 80)]
        inputs = [_network_input(TINY4, rand_batch(TINY4, 100, 81 + c)[0]) for c in range(4)]
        want = [_run_layers(vectors, TINY4, x)[0] for x in inputs]
        got = [[] for _ in inputs]

        def call(c):
            for _ in range(5):
                got[c].append(_run_layers(vectors, TINY4, inputs[c])[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(c,)) for c in range(len(inputs))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for c, expected in enumerate(want):
            assert len(got[c]) == 5 and all(np.array_equal(logits, expected) for logits in got[c]), c


# strides 1, 3 and 2 on 12x12, so conv2's input gradient has nine phases
TWELVE = ArchDescriptor((12, 12, 2), ((4, 3, 1), (6, 3, 3), (6, 3, 2)), (8,), 3)


class TestSharedBackward:
    """backward and the forward-only passes beside ``train``'s pooled
    worker: they run every layer on the calling thread, so an idle worker
    is left to ``train``; the one-CPU run is the oracle."""

    @staticmethod
    def beside_an_idle_worker(monkeypatch, run):
        """run()'s result on one CPU, then on two with the worker idle, and
        the jobs handed to the worker and the threads that ran a layer
        during the second run."""
        monkeypatch.setattr(trainer, "_TWO_CPUS", False)
        want = run()
        monkeypatch.setattr(trainer, "_TWO_CPUS", True)
        offloaded, real_offload = [], trainer._offload
        monkeypatch.setattr(trainer, "_offload", lambda fn: offloaded.append(fn) or real_offload(fn))
        threads, apply_layer = set(), model._apply_layer
        monkeypatch.setattr(model, "_apply_layer", lambda *args: threads.add(threading.current_thread()) or apply_layer(*args))
        assert trainer._idle.acquire(blocking=False)  # the worker is idle
        trainer._idle.release()
        return want, run(), offloaded, threads

    @pytest.mark.parametrize("arch", [TINY4, SMALL, TWELVE], ids=["tiny4", "small", "twelve"])
    @pytest.mark.parametrize("n", [1, 7, 32, 64])
    def test_backward_offloads_nothing_to_an_idle_worker(self, arch, n, monkeypatch):
        """With two CPUs and the worker idle, backward hands it no job, and
        its loss and gradient are the one-CPU run's, bit for bit."""
        params = with_biases(init_random(arch, RngStream(100)), 101)
        batch, labels = rand_batch(arch, n, 102)
        run = lambda: backward(params, arch, batch, labels)
        (loss, grad), (got_loss, got_grad), offloaded, threads = self.beside_an_idle_worker(monkeypatch, run)
        assert not offloaded and threads == {threading.current_thread()}
        assert got_loss == loss and got_grad.equals(grad)

    @pytest.mark.parametrize("arch", [TINY4, SMALL, TWELVE], ids=["tiny4", "small", "twelve"])
    @pytest.mark.parametrize("kind", ["forward", "evaluate", "three_vectors"])
    def test_forward_only_pass_offloads_nothing_to_an_idle_worker(self, arch, kind, monkeypatch):
        """forward, evaluate and a three-vector core pass on 300 images,
        many tiles: with two CPUs and the worker idle, each hands it no job
        and runs every layer on the calling thread, and its outputs are the
        one-CPU run's, bit for bit."""
        vectors = [with_biases(init_random(arch, RngStream(120, v)), 121 + v) for v in range(3)]
        batch, labels = rand_batch(arch, 300, 122)

        def run():
            if kind == "forward":
                logits, acts = forward(vectors[0], arch, batch)
                return [logits, *(act for _, act in acts)]
            if kind == "evaluate":
                result = trainer.evaluate(vectors[0], arch, Dataset(batch, labels, "test", {}))
                return [np.array([result.loss, result.accuracy]), result.predictions]
            return _run_layers(vectors, arch, _network_input(arch, batch))

        want, got, offloaded, threads = self.beside_an_idle_worker(monkeypatch, run)
        assert not offloaded and threads == {threading.current_thread()}
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_concurrent_backward_callers_get_their_one_thread_gradients(self, monkeypatch):
        """Four callers at once, more than the CPUs, with the interpreter
        switching threads every microsecond: whichever caller holds the
        worker, each gets its one-thread loss and gradient."""
        params = with_biases(init_random(TINY4, RngStream(104)), 105)
        batches = [rand_batch(TINY4, 32, 106 + c) for c in range(4)]
        monkeypatch.setattr(trainer, "_TWO_CPUS", False)
        want = [backward(params, TINY4, *batch) for batch in batches]
        monkeypatch.setattr(trainer, "_TWO_CPUS", True)
        got = [[] for _ in batches]

        def call(c):
            for _ in range(5):
                got[c].append(backward(params, TINY4, *batches[c]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(c,)) for c in range(len(batches))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for c, (loss, grad) in enumerate(want):
            assert len(got[c]) == 5 and all(got_loss == loss and g.equals(grad) for got_loss, g in got[c]), c


class TestCoreRecords:
    """backward's records come from the core; the untiled loop that they
    replaced is the oracle."""

    @pytest.mark.parametrize("arch", [TINY4, SMALL, TWELVE], ids=["tiny4", "small", "twelve"])
    @pytest.mark.parametrize("n", [1, 7, _TILE, _TILE + 1, 32, 64, 256])
    def test_backward_equals_untiled_records_bit_for_bit(self, arch, n, monkeypatch):
        """Each record's input, weight, patches and output, bit for bit, and
        backward's loss and gradient against backward on the untiled
        records. A records pass is one whole-batch tile, so it keeps the
        untiled loop's GEMMs even where tiling reassociates (SMALL's and
        TWELVE's conv1 at 256 images, REASSOCIATING)."""
        params = with_biases(init_random(arch, RngStream(110)), 111)
        batch, labels = rand_batch(arch, n, 112)
        x0 = _network_input(arch, batch)
        got, want = core_records(params, arch, x0), untiled_records(params, arch, x0)
        assert [layer for layer, *_ in got] == [layer for layer, *_ in want]
        for (layer, *parts), (_, *expected) in zip(got, want):
            for part, oracle in zip(parts, expected):
                assert (part is None and oracle is None) or (part.shape == oracle.shape and np.array_equal(part, oracle)), layer["name"]
        loss, grad = backward(params, arch, batch, labels)

        def untiled(vectors, arch, x, *, records):
            records.extend(untiled_records(vectors[0], arch, x))
            return [records[-1][-1]]

        monkeypatch.setattr(model, "_run_layers", untiled)
        want_loss, want_grad = backward(params, arch, batch, labels)
        assert loss == want_loss and grad.equals(want_grad)


def oracle_patches(x, kernel, stride):
    """The two-grid fancy-index gather: same values, batch-inner layout."""
    _, h, wid, _ = x.shape
    off = (kernel - 1) // 2
    taps = np.arange(kernel) - off
    rows = (np.arange(h // stride)[:, None] * stride + taps) % h
    cols = (np.arange(wid // stride)[:, None] * stride + taps) % wid
    return x[:, rows[:, None, :, None], cols[None, :, None, :], :]


def conv_geometries():
    """(in_hw, cin, kernel, stride) of every TINY4 and SMALL conv, plus k=1
    and k=5/stride 2."""
    geoms = [
        (layer["in_hw"], layer["cin"], layer["kernel"], layer["stride"])
        for arch in (TINY4, SMALL)
        for layer in arch.layer_plan()
        if layer["kind"] == "conv"
    ]
    extra = [((8, 8), 3, 1, 1), ((16, 8), 2, 5, 2)]
    # runs of gcd(C, 4) values: 1 (C = 1, 5) and 4 (C = 12, 32)
    runs = [((8, 8), 1, 3, 1), ((8, 8), 5, 3, 2), ((8, 8), 12, 3, 1), ((8, 8), 32, 3, 2)]
    return geoms + extra + runs


class TestGatherPatches:
    @pytest.mark.parametrize("geom", conv_geometries(), ids=lambda g: f"{g[0][0]}x{g[0][1]}c{g[1]}k{g[2]}s{g[3]}")
    def test_matches_fancy_index_oracle_and_is_contiguous(self, geom):
        (h, wid), cin, kernel, stride = geom
        x = gaussian(RngStream(27), 3 * h * wid * cin, 1.0).reshape(3, h, wid, cin)
        got = _gather_patches(x, kernel, stride)
        want = oracle_patches(x, kernel, stride)
        assert got.shape == (3, h // stride, wid // stride, kernel, kernel, cin)
        assert np.array_equal(got, want)
        # so the GEMM reshape is a view, not a second transposing copy
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("geom", conv_geometries(), ids=lambda g: f"{g[0][0]}x{g[0][1]}c{g[1]}k{g[2]}s{g[3]}")
    def test_run_indices_cached_and_read_only(self, geom):
        """One run of gcd(C, 4) values per index entry, C // gcd(C, 4) per
        pixel; the forward and phase indices are built once per geometry
        and cannot be written through."""
        (h, wid), cin, kernel, stride = geom
        runs = cin // math.gcd(cin, 4)
        index = _patch_indices(h, wid, kernel, stride, cin)
        assert index is _patch_indices(h, wid, kernel, stride, cin)
        assert index.shape == (h // stride, wid // stride, kernel, kernel, runs)
        assert not index.flags.writeable
        phases = _phase_indices(h // stride, wid // stride, kernel, stride, cin)
        assert phases is _phase_indices(h // stride, wid // stride, kernel, stride, cin)
        for _, _, taps, index in phases:
            assert index.shape[:2] == (h // stride, wid // stride) and index.shape[-1] == runs
            assert not taps.flags.writeable and not index.flags.writeable


def zero_stuffed_input_grad(gout, x_shape, w, stride):
    """The input gradient as the transposed conv the phase form replaced:
    zero-stuffed upsample of gout, flipped kernel with its channel axes
    swapped, a stride-1 conv, and the + 0.0 bias that made -0.0 into +0.0."""
    bsz, h, wid, _ = x_shape
    k, _, cin, cout = w.shape
    gup = np.zeros((bsz, h, wid, cout))
    gup[:, ::stride, ::stride] = gout
    wt = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2))
    flat = _gather_patches(gup, k, 1).reshape(bsz * h * wid, k * k * cout)
    return (flat @ wt.reshape(k * k * cout, cin)).reshape(bsz, h, wid, cin) + 0.0


def input_grad_case(h, wid, cin, cout, kernel, stride, bsz, seed):
    rng = RngStream(seed)
    x_shape = (bsz, h, wid, cin)
    w = gaussian(rng, kernel * kernel * cin * cout, 1.0).reshape(kernel, kernel, cin, cout)
    gout = gaussian(rng, bsz * (h // stride) * (wid // stride) * cout, 1.0).reshape(bsz, h // stride, wid // stride, cout)
    # backward hands over ReLU-masked gradients, so zeros of both signs occur
    gout[gout < -0.5] = 0.0
    gout[gout > 1.5] = -0.0
    x = gaussian(rng, bsz * h * wid * cin, 1.0).reshape(x_shape)
    return gout, x_shape, w, _gather_patches(x, kernel, stride)


# (in_hw, cin, cout, kernel, stride) of the two strides larger than the
# kernel; with k=1/s=2 phases 1 and with k=3/s=4 phase 2 have no tap
WIDE_STRIDES = [((8, 8), 8, 16, 1, 2), ((16, 16), 8, 16, 3, 4)]


def bit_identity_cases():
    """Every TINY4 conv with its own width, every stride-1 geometry (a single
    phase: the zero-stuffed form's own GEMM) at widths 3 and 16, and the
    wide strides."""
    tiny = [
        (layer["in_hw"], layer["cin"], layer["cout"], layer["kernel"], layer["stride"])
        for layer in TINY4.layer_plan()
        if layer["kind"] == "conv"
    ]
    stride1 = [(hw, cin, cout, k, 1) for hw, cin, k, s in conv_geometries() if s == 1 for cout in (3, 16)]
    return tiny + stride1 + WIDE_STRIDES


def case_id(case):
    (h, wid), cin, cout, kernel, stride = case
    return f"{h}x{wid}c{cin}o{cout}k{kernel}s{stride}"


class TestInputGradient:
    """The phase-decomposed input gradient against the zero-stuffed oracle.

    The phase form sums each element's nonzero terms in the oracle's K order,
    so both agree bit for bit wherever the BLAS kernel adds a dot product's
    terms in order. OpenBLAS reassociates for some narrow or deep GEMMs
    (few input channels, or more K than one kernel block), so bit identity is
    pinned on the TINY4 layers, whose trained bits the benchmark references
    check, on stride 1 and on the wide strides; every geometry is held to
    the rounding bound of two length-K dot products."""

    @pytest.mark.parametrize("bsz", [1, 32])
    @pytest.mark.parametrize("case", bit_identity_cases(), ids=case_id)
    def test_matches_zero_stuffed_oracle_bit_for_bit(self, case, bsz):
        (h, wid), cin, cout, kernel, stride = case
        gout, x_shape, w, patches = input_grad_case(h, wid, cin, cout, kernel, stride, bsz, 31)
        got, _, _ = _conv_backward(gout, x_shape, w, patches, stride)
        want = zero_stuffed_input_grad(gout, x_shape, w, stride)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("bsz", [1, 32])
    @pytest.mark.parametrize(
        "geom",
        conv_geometries() + [(hw, cin, k, s) for hw, cin, _, k, s in WIDE_STRIDES],
        ids=lambda g: f"{g[0][0]}x{g[0][1]}c{g[1]}k{g[2]}s{g[3]}",
    )
    def test_within_reassociation_bound_of_oracle(self, geom, bsz):
        (h, wid), cin, kernel, stride = geom
        for cout in (3, 6, 16):
            gout, x_shape, w, patches = input_grad_case(h, wid, cin, cout, kernel, stride, bsz, 32)
            got, _, _ = _conv_backward(gout, x_shape, w, patches, stride)
            want = zero_stuffed_input_grad(gout, x_shape, w, stride)
            n_terms = kernel * kernel * cout
            gamma = n_terms * 2.0**-53 / (1 - n_terms * 2.0**-53)
            magnitude = zero_stuffed_input_grad(np.abs(gout), x_shape, np.abs(w), stride)
            assert np.all(np.abs(got - want) <= 2 * gamma * magnitude)
            # exact zeros where no nonzero term lands, and no negative zero
            assert np.all(got[magnitude == 0] == 0)
            assert not np.any(np.signbit(got) & (got == 0))

    @pytest.mark.parametrize("kernel", [3, 5])
    def test_matches_finite_differences(self, kernel):
        """<conv(x), G> is linear in x, so central differences at every
        input coordinate equal the input gradient up to rounding."""
        h, wid, cin, cout, stride = 8, 8, 3, 4, 2
        gout, x_shape, w, _ = input_grad_case(h, wid, cin, cout, kernel, stride, 2, 34)
        x = gaussian(RngStream(35), int(np.prod(x_shape)), 1.0).reshape(x_shape)
        grad_x, _, _ = _conv_backward(gout, x_shape, w, _gather_patches(x, kernel, stride), stride)

        def objective(xv):
            out = conv_gemm(_gather_patches(xv, kernel, stride), w)
            return float(np.sum(out * gout))

        eps = 1e-3
        fd = np.empty(x.size)
        for i in range(x.size):
            up, down = x.copy().ravel(), x.copy().ravel()
            up[i] += eps
            down[i] -= eps
            fd[i] = (objective(up.reshape(x_shape)) - objective(down.reshape(x_shape))) / (2 * eps)
        assert np.allclose(fd, grad_x.ravel(), rtol=1e-7, atol=1e-9)


class TestBackward:
    def test_uniform_logits_loss_ln_c(self):
        params = ParamVector.zeros(TINY4)
        batch, labels = rand_batch(TINY4, 4, 5)
        loss, _ = backward(params, TINY4, batch, labels)
        assert abs(loss - np.log(10)) < 1e-12

    def test_softmax_cross_entropy_matches_log_softmax_oracle(self):
        """The gradient keeps every bit of the log-softmax form, and the mean
        loss, log(sum) - (z[label] - m) as in evaluate, is within a few ulps
        of max|z| + loss, 1e-15 relative once the loss is a tenth of max|z|
        or more."""
        rng = RngStream(27)
        ulp = 2.0**-52
        for trial in range(1000):
            n, c = 1 + trial % 40, 2 + trial % 9
            z = gaussian(rng, n * c, 0.5 + trial % 5).reshape(n, c) * 10.0 ** (trial % 5 - 3)
            labels = (np.arange(n) * (trial + 1)) % c
            m = z.max(axis=1, keepdims=True)
            ez = np.exp(z - m)
            sez = ez.sum(axis=1, keepdims=True)
            want_loss = -float(((z - m) - np.log(sez))[np.arange(n), labels].mean())
            want_grad = ez / sez
            want_grad[np.arange(n), labels] -= 1.0
            want_grad /= n
            loss, grad = softmax_cross_entropy(z, labels)
            assert np.array_equal(grad, want_grad)
            scale = float(np.abs(z).max())
            assert abs(loss - want_loss) <= 4 * ulp * (scale + want_loss)
            if want_loss >= 0.1 * scale:
                assert abs(loss - want_loss) <= 1e-15 * want_loss

    def test_confident_loss_does_not_round_at_the_logits_scale(self):
        """Logits near 1e3 with the label ahead by about 10: the loss is near
        1e-4, so forming lse(z) at the scale of max|z| left errors of 1e-9
        relative; the shifted logits keep it within 1e-10 of a long double
        evaluation."""
        rng = np.random.default_rng(28)
        z = 1e3 + rng.standard_normal((400, 10))
        labels = rng.integers(0, 10, 400)
        z[np.arange(400), labels] += 10.0
        zl = z.astype(np.longdouble)
        want = np.log(np.exp(zl - zl[np.arange(400), labels][:, None]).sum(axis=1))
        nll, _ = _nll(z, labels)
        assert np.all(np.abs(nll - want) <= 1e-10 * want)
        loss, _ = softmax_cross_entropy(z, labels)
        assert abs(loss - float(want.mean())) <= 1e-10 * float(want.mean())

    @pytest.mark.parametrize(
        "labels, error",
        [
            ([0, 1, -1], DomainError),
            ([0, 1, 10], DomainError),
            ([0.0, 1.0, 2.0], DomainError),
            ([[0], [1], [2]], SizeError),
            ([0, 1], SizeError),
        ],
        ids=["negative", "past_the_classes", "float", "column", "short"],
    )
    def test_softmax_cross_entropy_checks_its_labels(self, labels, error):
        """A label of -1 was scored as the last class, and one of C, or
        float labels, raised a bare IndexError."""
        z = gaussian(RngStream(37), 30, 1.0).reshape(3, 10)
        with pytest.raises(error):
            softmax_cross_entropy(z, np.array(labels))

    def test_softmax_cross_entropy_of_no_logits_rows_rejected(self):
        with pytest.raises(SizeError):
            softmax_cross_entropy(np.zeros(10), np.array([0]))
        with pytest.raises(DomainError, match="empty batch"):
            softmax_cross_entropy(np.zeros((0, 10)), np.zeros(0, dtype=np.int64))

    def test_backward_checks_its_labels_once(self, monkeypatch):
        params = init_random(TINY4, RngStream(36))
        batch, labels = rand_batch(TINY4, 4, 12)
        checks, real_check = [], model._check_labels
        monkeypatch.setattr(model, "_check_labels", lambda *args: checks.append(args) or real_check(*args))
        backward(params, TINY4, batch, labels)
        assert len(checks) == 1

    def test_out_of_range_label_rejected(self):
        params = ParamVector.zeros(TINY4)
        batch, labels = rand_batch(TINY4, 4, 6)
        labels[0] = 10
        with pytest.raises(DomainError):
            backward(params, TINY4, batch, labels)

    def test_column_labels_rejected(self):
        # a (2, 1) label column broadcast in the loss to a wrong value
        params = init_random(TINY4, RngStream(36))
        batch, labels = rand_batch(TINY4, 2, 12)
        with pytest.raises(SizeError):
            backward(params, TINY4, batch, labels[:, None])

    def test_float_labels_rejected(self):
        # they were truncated to integers
        params = init_random(TINY4, RngStream(36))
        batch, _ = rand_batch(TINY4, 2, 12)
        with pytest.raises(DomainError):
            backward(params, TINY4, batch, np.array([0.7, 1.2]))

    def test_single_image_with_scalar_label_rejected(self):
        params = init_random(TINY4, RngStream(36))
        batch, labels = rand_batch(TINY4, 1, 12)
        with pytest.raises(SizeError):
            backward(params, TINY4, batch[0], labels[0])

    def test_empty_batch_rejected(self):
        params = init_random(TINY4, RngStream(36))
        batch, labels = rand_batch(TINY4, 1, 12)
        with pytest.raises(DomainError):
            backward(params, TINY4, batch[:0], labels[:0])
        with pytest.raises(DomainError, match="empty batch"):
            forward(params, TINY4, batch[:0])

    def test_grad_index_matches_params(self):
        params = init_random(SMALL, RngStream(19))
        batch, labels = rand_batch(SMALL, 4, 7)
        _, grad = backward(params, SMALL, batch, labels)
        assert grad.same_index(params)

    def test_duplicate_batch_invariance(self):
        params = init_random(SMALL, RngStream(20))
        batch, labels = rand_batch(SMALL, 4, 8)
        loss1, grad1 = backward(params, SMALL, batch, labels)
        batch2 = np.concatenate([batch, batch])
        labels2 = np.concatenate([labels, labels])
        loss2, grad2 = backward(params, SMALL, batch2, labels2)
        assert abs(loss1 - loss2) < 1e-6
        assert np.max(np.abs(grad1.values - grad2.values)) < 1e-6

    @pytest.mark.parametrize("module", ["conv1", "conv2", "fc1", "classifier"])
    def test_gradient_matches_finite_differences(self, module):
        init = init_random(SMALL, RngStream(21))
        params = ParamVector(init.values.astype(np.float64), init.index)
        batch, labels = rand_batch(SMALL, 4, 9)
        loss, grad = backward(params, SMALL, batch, labels)
        assert abs(loss - xent_loss(params, SMALL, batch, labels)) < 1e-9
        worst = fd_gradient_check(
            params, SMALL, batch, labels, grad, params.module_slice(module), RngStream(22)
        )
        assert worst < 1e-2

    def test_tiny4_first_layer_matches_finite_differences(self):
        # conv1's input gradient is skipped; its weight gradient must not change
        init = init_random(TINY4, RngStream(28))
        params = ParamVector(init.values.astype(np.float64), init.index)
        batch, labels = rand_batch(TINY4, 2, 11)
        _, grad = backward(params, TINY4, batch, labels)
        worst = fd_gradient_check(
            params, TINY4, batch, labels, grad, params.module_slice("conv1"), RngStream(29)
        )
        assert worst < 1e-2

    @pytest.mark.parametrize("stride", [1, 2])
    def test_skipped_input_gradient_keeps_weight_bits(self, stride):
        rng = RngStream(30)
        x = gaussian(rng, 3 * 8 * 8 * 2, 1.0).reshape(3, 8, 8, 2)
        w = gaussian(rng, 3 * 3 * 2 * 4, 1.0).reshape(3, 3, 2, 4)
        patches = _gather_patches(x, 3, stride)
        gout = gaussian(rng, 3 * (8 // stride) ** 2 * 4, 1.0).reshape(3, 8 // stride, 8 // stride, 4)
        gx, gw, gb = _conv_backward(gout, x.shape, w, patches, stride)
        assert gx.shape == x.shape
        none, gw0, gb0 = _conv_backward(gout, x.shape, w, patches, stride, need_input_grad=False)
        assert none is None
        assert np.array_equal(gw0, gw) and np.array_equal(gb0, gb)

    @pytest.mark.parametrize("arch", [TINY4, SMALL, TWELVE], ids=["tiny4", "small", "twelve"])
    @pytest.mark.parametrize("n", [1, 7, 32, 64])
    def test_conv_weight_and_bias_gradients_keep_the_direct_forms_bits(self, arch, n):
        """On every conv of the three architectures, grad_w, the transposed
        GEMM (g^T patches)^T, has the bits and (k, k, Cin, Cout) layout of
        np.dot(patches^T, g), and grad_b, an einsum, has those of g summed
        over the batch and pixels, signed zeros included."""
        params = with_biases(init_random(arch, RngStream(116)), 117)
        batch, _ = rand_batch(arch, n, 118)
        records = core_records(params, arch, _network_input(arch, batch))
        for depth, (layer, x_in, w, patches, post) in enumerate(records):
            if layer["kind"] != "conv":
                break
            g = gaussian(RngStream(119, depth), post.size, 1.0).reshape(post.shape) * (post > 0)
            _, gw, gb = _conv_backward(g, x_in.shape, w, patches, layer["stride"], need_input_grad=False)
            flat = patches.reshape(-1, w[..., 0].size)
            assert gw.shape == w.shape
            assert np.array_equal(gw, np.dot(flat.T, g.reshape(-1, layer["cout"])).reshape(w.shape)), layer["name"]
            want = g.sum(axis=(0, 1, 2))
            assert np.array_equal(gb, want) and np.array_equal(np.signbit(gb), np.signbit(want)), layer["name"]

    def test_bias_gradient_of_zero_channels_has_the_old_sums_signs(self):
        """einsum and the old sum both start from +0.0, so a channel that is
        -0.0 on every pixel sums to +0.0 in both, as does a channel of
        zeros of both signs or one whose terms cancel exactly; a sum that
        started from its first term would keep channel 1's -0.0."""
        gout, x_shape, w, patches = input_grad_case(8, 8, 3, 4, 3, 1, 2, 38)
        gout[..., 1] = -0.0
        gout[..., 2] = np.where(np.arange(gout[..., 2].size).reshape(gout.shape[:3]) % 2, 0.0, -0.0)
        gout[..., 3] = 0.0
        gout[0, 0, 0, 3], gout[1, 0, 0, 3] = 0.75, -0.75
        _, _, gb = _conv_backward(gout, x_shape, w, patches, 1)
        want = gout.sum(axis=(0, 1, 2))
        assert gb[0] != 0 and np.all(gb[1:] == 0)
        assert np.array_equal(gb, want) and not np.signbit(gb).any() and not np.signbit(want).any()

    def test_gradient_via_directional_derivative(self):
        # full-vector check at tiny step; immune to coordinate kinks
        init = init_random(SMALL, RngStream(25))
        params = ParamVector(init.values.astype(np.float64), init.index)
        batch, labels = rand_batch(SMALL, 4, 10)
        _, grad = backward(params, SMALL, batch, labels)
        d = gaussian(RngStream(26), params.size, 1.0)
        h = 1e-6
        up = params.copy()
        up.values += h * d
        down = params.copy()
        down.values -= h * d
        fd = (xent_loss(up, SMALL, batch, labels) - xent_loss(down, SMALL, batch, labels)) / (2 * h)
        analytic = float(d @ grad.values)
        assert abs(fd - analytic) < 1e-6 * max(1.0, abs(analytic))


class TestSgdStep:
    def index1(self):
        return (type(build_index(TINY4)[0])("w.weight", 0, 1, (1,)),)

    def scalar_params(self, w):
        return ParamVector(np.array([w], dtype=np.float64), self.index1())

    def test_zero_grad_identity(self):
        params = init_random(TINY4, RngStream(23))
        zero = ParamVector.zeros(TINY4)
        out, buf = sgd_step(params, zero, 0.1, None, 0.0, 0.0)
        assert out.equals(params)
        assert np.all(buf.values == 0)

    def test_quadratic_single_step(self):
        # loss w^2/2 -> grad w; lr 0.1 from w=1 lands at 0.9
        params = self.scalar_params(1.0)
        grad = self.scalar_params(1.0)
        out, _ = sgd_step(params, grad, 0.1, None, 0.0, 0.0)
        assert abs(out.values[0] - 0.9) < 1e-15

    def test_momentum_matches_scalar_recurrence(self):
        w, buf_ref = 1.0, 0.0
        params = self.scalar_params(1.0)
        buf = None
        for _ in range(20):
            grad = self.scalar_params(params.values[0])
            params, buf = sgd_step(params, grad, 0.1, buf, 0.9, 0.0)
            # independent scalar recurrence
            buf_ref = 0.9 * buf_ref + w
            w = w - 0.1 * buf_ref
            assert abs(params.values[0] - w) < 1e-7

    def test_weight_decay_enters_buffer(self):
        params = self.scalar_params(2.0)
        grad = self.scalar_params(0.0)
        out, buf = sgd_step(params, grad, 0.5, None, 0.0, 0.1)
        assert abs(buf.values[0] - 0.2) < 1e-15
        assert abs(out.values[0] - 1.9) < 1e-15

    def test_bad_hyperparams_rejected(self):
        params = self.scalar_params(1.0)
        grad = self.scalar_params(1.0)
        with pytest.raises(DomainError):
            sgd_step(params, grad, 0.0, None, 0.0, 0.0)
        with pytest.raises(DomainError):
            sgd_step(params, grad, 0.1, None, 1.0, 0.0)
        with pytest.raises(DomainError):
            sgd_step(params, grad, 0.1, None, 0.0, -0.1)

    def test_non_finite_grad_rejected(self):
        params = self.scalar_params(1.0)
        grad = self.scalar_params(np.inf)
        with pytest.raises(DomainError):
            sgd_step(params, grad, 0.1, None, 0.0, 0.0)

    def test_grad_of_another_index_rejected(self):
        params = init_random(TINY4, RngStream(23))
        with pytest.raises(DomainError, match="params and grad"):
            sgd_step(params, ParamVector.zeros(SMALL), 0.1, None, 0.9, 0.0)

    @pytest.mark.parametrize("other", ["size_1", "SMALL"])
    def test_momentum_buffer_of_another_index_rejected(self, other):
        # a size-1 buffer would broadcast over all 12,266 entries; another
        # architecture's would fail inside numpy
        params = init_random(TINY4, RngStream(23))
        grad = ParamVector.zeros(TINY4)
        buf = self.scalar_params(1.0) if other == "size_1" else ParamVector.zeros(SMALL)
        with pytest.raises(DomainError, match="momentum_buf"):
            sgd_step(params, grad, 0.1, buf, 0.9, 0.0)
