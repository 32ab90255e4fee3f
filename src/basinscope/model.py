"""Small fixed-family convolutional classifier with manual backprop.

Architecture: a stack of circular-padded conv blocks (ReLU), a flatten, one
or more ReLU fully connected layers, and a linear classifier head. There are
no normalization layers, so every parameter is an ordinary weight or bias and
linear interpolation between two parameter vectors is well defined.

Parameters live in a flat ParamVector with a named index; each module
("conv1", ..., "fc1", "classifier") owns a contiguous slice.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SizeError
from .numerics import is_power_of_two
from .rng import RngStream, gaussian

_STREAM_INIT = 0x494E4954  # "INIT"


@dataclass(frozen=True)
class ArchDescriptor:
    """Shape of the network family; round-trips through JSON text."""

    input_shape: tuple[int, int, int]  # (height, width, channels)
    conv_blocks: tuple[tuple[int, int, int], ...]  # (out_channels, kernel, stride)
    fc_widths: tuple[int, ...]
    num_classes: int

    def __post_init__(self):
        h, w, _ = self.input_shape
        if not (is_power_of_two(h) and is_power_of_two(w)):
            raise SizeError("input height and width must be powers of two")
        if len(self.conv_blocks) < 1:
            raise SizeError("need at least one conv block")
        if any(k % 2 == 0 for _, k, _ in self.conv_blocks):
            # circular "same" padding centres the kernel only for odd k
            raise SizeError("conv kernels must be odd")
        if len(self.fc_widths) < 1:
            raise SizeError("need at least one fully connected layer")
        if self.num_classes < 2:
            raise SizeError("need at least two classes")
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "conv_blocks", tuple(tuple(b) for b in self.conv_blocks))
        object.__setattr__(self, "fc_widths", tuple(self.fc_widths))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ArchDescriptor":
        return cls(**json.loads(text))

    def layer_plan(self):
        """Per-module plan: (name, kind, in/out shapes and sizes)."""
        h, w, c = self.input_shape
        plan = []
        for i, (cout, k, stride) in enumerate(self.conv_blocks, start=1):
            if k > h or k > w:
                raise SizeError(f"kernel {k} exceeds spatial size {h}x{w}")
            if h % stride or w % stride:
                raise SizeError(f"stride {stride} must divide spatial size {h}x{w}")
            plan.append(
                {
                    "name": f"conv{i}",
                    "kind": "conv",
                    "in_hw": (h, w),
                    "cin": c,
                    "cout": cout,
                    "kernel": k,
                    "stride": stride,
                }
            )
            h, w, c = h // stride, w // stride, cout
        features = h * w * c
        for i, width in enumerate(self.fc_widths, start=1):
            plan.append({"name": f"fc{i}", "kind": "fc", "fan_in": features, "fan_out": width})
            features = width
        plan.append(
            {"name": "classifier", "kind": "classifier", "fan_in": features, "fan_out": self.num_classes}
        )
        return plan

    def module_names(self) -> list[str]:
        return [layer["name"] for layer in self.layer_plan()]


# Default desk-scale architecture: 12,266 parameters, every analysis in seconds.
TINY4 = ArchDescriptor(
    input_shape=(16, 16, 3),
    conv_blocks=((8, 3, 1), (16, 3, 2), (16, 3, 2)),
    fc_widths=(32,),
    num_classes=10,
)


@dataclass(frozen=True)
class IndexEntry:
    name: str  # "<module>.weight" | "<module>.bias"
    offset: int
    length: int
    shape: tuple[int, ...]

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


def build_index(arch: ArchDescriptor) -> tuple[IndexEntry, ...]:
    entries = []
    offset = 0
    for layer in arch.layer_plan():
        if layer["kind"] == "conv":
            wshape = (layer["kernel"], layer["kernel"], layer["cin"], layer["cout"])
            bshape = (layer["cout"],)
        else:
            wshape = (layer["fan_out"], layer["fan_in"])
            bshape = (layer["fan_out"],)
        for suffix, shape in (("weight", wshape), ("bias", bshape)):
            length = int(np.prod(shape))
            entries.append(IndexEntry(f"{layer['name']}.{suffix}", offset, length, shape))
            offset += length
    return tuple(entries)


class ParamVector:
    """Flat parameter vector plus the index table mapping names to slices."""

    __slots__ = ("values", "index")

    def __init__(self, values: np.ndarray, index: tuple[IndexEntry, ...]):
        values = np.ascontiguousarray(values)
        total = index[-1].offset + index[-1].length if index else 0
        if values.ndim != 1 or values.size != total:
            raise SizeError(f"values length {values.size} does not match index total {total}")
        self.values = values
        self.index = tuple(index)

    @classmethod
    def zeros(cls, arch: ArchDescriptor, dtype=np.float32) -> "ParamVector":
        index = build_index(arch)
        total = index[-1].offset + index[-1].length
        return cls(np.zeros(total, dtype=dtype), index)

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.index)

    def astype(self, dtype) -> "ParamVector":
        return ParamVector(self.values.astype(dtype), self.index)

    @property
    def size(self) -> int:
        return self.values.size

    def entry(self, name: str) -> IndexEntry:
        for e in self.index:
            if e.name == name:
                return e
        raise DomainError(f"unknown parameter entry {name!r}")

    def get(self, name: str) -> np.ndarray:
        e = self.entry(name)
        return self.values[e.offset : e.offset + e.length].reshape(e.shape)

    def set(self, name: str, array) -> None:
        e = self.entry(name)
        arr = np.asarray(array, dtype=self.values.dtype).reshape(e.shape)
        self.values[e.offset : e.offset + e.length] = arr.ravel()

    def module_names(self) -> list[str]:
        names = []
        for e in self.index:
            if e.module not in names:
                names.append(e.module)
        return names

    def module_slice(self, module_name: str) -> slice:
        spans = [(e.offset, e.offset + e.length) for e in self.index if e.module == module_name]
        if not spans:
            raise DomainError(f"unknown module {module_name!r}")
        lo = min(s for s, _ in spans)
        hi = max(e for _, e in spans)
        return slice(lo, hi)

    def same_index(self, other: "ParamVector") -> bool:
        return self.index == other.index

    def equals(self, other: "ParamVector") -> bool:
        return self.same_index(other) and np.array_equal(self.values, other.values)


def init_random(arch: ArchDescriptor, rng: RngStream) -> ParamVector:
    """He fan-in Gaussian conv/fc weights, zero biases, uniform classifier weight."""
    params = ParamVector.zeros(arch)
    init_rng = rng.split(_STREAM_INIT)
    for layer in arch.layer_plan():
        weight = params.entry(f"{layer['name']}.weight")
        # every output unit has one bias and fan_in weights
        fan_in = weight.length // params.entry(f"{layer['name']}.bias").length
        if layer["kind"] == "classifier":
            w = (2.0 * init_rng.uniform(weight.length) - 1.0) * (1.0 / np.sqrt(fan_in))
        else:
            w = gaussian(init_rng, weight.length, np.sqrt(2.0 / fan_in))
        params.set(weight.name, w)
        # biases stay zero
    return params


@lru_cache(maxsize=64)
def _patch_indices(h: int, wid: int, kernel: int, stride: int) -> np.ndarray:
    """Flat spatial gather index rows*wid + cols, shape (OH, OW, k, k): tap t
    of output o reads (o*stride + t - (k-1)//2) mod size along each axis."""
    taps = np.arange(kernel) - (kernel - 1) // 2
    rows = (np.arange(h // stride)[:, None] * stride + taps) % h  # (OH, k)
    cols = (np.arange(wid // stride)[:, None] * stride + taps) % wid  # (OW, k)
    flat = rows[:, None, :, None] * wid + cols[None, :, None, :]
    flat.flags.writeable = False
    return flat


def _gather_patches(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """C-contiguous (B, OH, OW, k, k, Cin) patch tensor for a circular-padded
    conv, so the GEMM's (B*OH*OW, k*k*Cin) reshape is a view."""
    bsz, h, wid, cin = x.shape
    return np.take(x.reshape(bsz, h * wid, cin), _patch_indices(h, wid, kernel, stride), axis=1)


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, patches=None):
    k, _, cin, cout = w.shape
    if patches is None:
        patches = _gather_patches(x, k, stride)
    bsz, oh, ow = patches.shape[:3]
    flat = patches.reshape(bsz * oh * ow, k * k * cin)
    out = (flat @ w.reshape(k * k * cin, cout)).reshape(bsz, oh, ow, cout) + b
    return out, patches


def _conv_backward(gout: np.ndarray, x_shape, w: np.ndarray, patches, stride: int, need_input_grad: bool = True):
    """(grad_x, grad_w, grad_b); grad_x is None when need_input_grad is False."""
    k, _, cin, cout = w.shape
    bsz, h, wid, _ = x_shape
    oh, ow = patches.shape[1:3]
    flat = patches.reshape(bsz * oh * ow, k * k * cin)
    gflat = gout.reshape(bsz * oh * ow, cout)
    grad_w = (flat.T @ gflat).reshape(k, k, cin, cout)
    grad_b = gout.sum(axis=(0, 1, 2))
    if not need_input_grad:
        return None, grad_w, grad_b
    # input gradient = transposed conv: zero-stuffed upsample, flipped kernel,
    # swapped channel axes (offsets coincide because k is odd)
    if stride > 1:
        gup = np.zeros((bsz, h, wid, cout), dtype=np.float64)
        gup[:, ::stride, ::stride, :] = gout
    else:
        gup = gout
    wt = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2))
    grad_x, _ = _conv_forward(gup, wt, 0.0, 1)
    return grad_x, grad_w, grad_b


INPUT_CENTER = 0.5  # images are in [0, 1]; centering keeps early training stable


def _network_input(arch: ArchDescriptor, batch) -> np.ndarray:
    """Shape-checked, centered float64 input to the first layer."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 3:
        x = x[None]
    if x.shape[1:] != tuple(arch.input_shape):
        raise SizeError(f"batch shape {x.shape[1:]} does not match arch input {arch.input_shape}")
    return x - INPUT_CENTER


def _run_layers(
    params: ParamVector,
    arch: ArchDescriptor,
    x: np.ndarray,
    start: int = 0,
    stop: int | None = None,
    *,
    keep: bool = False,
    patches: np.ndarray | None = None,
):
    """The forward core: run layers [start, stop) of the plan on x, the
    float64 input to layer start (for start=0, ``_network_input``).

    Returns (output, records). With keep=True, records holds one (layer,
    x_in, w, pre, patches, post) per layer: its plan entry, its input
    (flattened for a dense layer), float64 weight, pre-activation, conv
    patches (None for a dense layer) and output; otherwise it is empty.
    patches, when given, are layer start's gathered conv patches of x, so
    the gather is skipped.
    """
    records = []
    for layer in arch.layer_plan()[start:stop]:
        name = layer["name"]
        w = params.get(f"{name}.weight").astype(np.float64)
        b = params.get(f"{name}.bias").astype(np.float64)
        if layer["kind"] == "conv":
            x_in = x
            pre, gathered = _conv_forward(x, w, b, layer["stride"], patches)
        else:
            x_in = x.reshape(x.shape[0], -1)
            pre, gathered = x_in @ w.T + b, None
        patches = None
        post = pre if layer["kind"] == "classifier" else np.maximum(pre, 0.0)
        if keep:
            records.append((layer, x_in, w, pre, gathered, post))
        x = post
    return x, records


def _module_input(params: ParamVector, arch: ArchDescriptor, batch, start: int):
    """Input to layer start of the plan, and for a conv layer its gathered
    patches (None otherwise): the frozen prefix's part of a forward pass
    that ``_run_layers(..., start, patches=...)`` completes."""
    x, _ = _run_layers(params, arch, _network_input(arch, batch), 0, start)
    layer = arch.layer_plan()[start]
    if layer["kind"] != "conv":
        return x, None
    return x, _gather_patches(x, layer["kernel"], layer["stride"])


def forward(params: ParamVector, arch: ArchDescriptor, batch) -> tuple[np.ndarray, list]:
    """Logits (batch, num_classes) in float64 plus per-module post-activation
    outputs in storage precision."""
    logits, records = _run_layers(params, arch, _network_input(arch, batch), keep=True)
    return logits, [(layer["name"], post.astype(np.float32)) for layer, *_, post in records]


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise DomainError(f"labels must lie in [0, {num_classes})")


def _nll(z: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row cross-entropy lse(z) - z[label] of float64 logits z, and the
    softmax probabilities."""
    m = z.max(axis=1, keepdims=True)
    ez = np.exp(z - m)
    sez = ez.sum(axis=1)
    lse = m[:, 0] + np.log(sez)
    return lse - z[np.arange(z.shape[0]), labels], ez / sez[:, None]


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and d(loss)/d(logits), computed in float64."""
    labels = np.asarray(labels)
    nll, dlogits = _nll(np.asarray(logits, dtype=np.float64), labels)
    n = nll.shape[0]
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return float(np.sum(nll)) / n, dlogits


def backward(params: ParamVector, arch: ArchDescriptor, batch, labels) -> tuple[float, ParamVector]:
    """Mean cross-entropy loss and its gradient as a ParamVector."""
    labels = np.asarray(labels, dtype=np.int64)
    _check_labels(labels, arch.num_classes)
    logits, records = _run_layers(params, arch, _network_input(arch, batch), keep=True)
    if labels.shape[0] != logits.shape[0]:
        raise SizeError("labels length does not match batch size")
    loss, g = softmax_cross_entropy(logits, labels)
    grad = ParamVector.zeros(arch, dtype=params.values.dtype)
    for depth in reversed(range(len(records))):
        layer, x_in, w, pre, patches, _ = records[depth]
        name = layer["name"]
        if layer["kind"] != "classifier":
            g = g.reshape(pre.shape) * (pre > 0)
        if layer["kind"] == "conv":
            # nothing reads the network input's gradient
            g_in, gw, gb = _conv_backward(g, x_in.shape, w, patches, layer["stride"], need_input_grad=depth > 0)
        else:
            g_in, gw, gb = g @ w, g.T @ x_in, g.sum(axis=0)
        grad.set(f"{name}.weight", gw)
        grad.set(f"{name}.bias", gb)
        g = g_in
    return loss, grad


def sgd_step(
    params: ParamVector,
    grad: ParamVector,
    lr: float,
    momentum_buf: ParamVector | None,
    momentum: float,
    weight_decay: float,
) -> tuple[ParamVector, ParamVector]:
    """buf' = momentum*buf + grad + wd*params; params' = params - lr*buf'."""
    if lr <= 0:
        raise DomainError("lr must be positive")
    if not (0 <= momentum < 1):
        raise DomainError("momentum must lie in [0, 1)")
    if weight_decay < 0:
        raise DomainError("weight_decay must be non-negative")
    if not params.same_index(grad):
        raise DomainError("params and grad have different index tables")
    if not np.all(np.isfinite(grad.values)):
        raise DomainError("non-finite gradient")
    p = params.values.astype(np.float64)
    g = grad.values.astype(np.float64)
    buf = (
        np.zeros_like(p)
        if momentum_buf is None
        else momentum_buf.values.astype(np.float64)
    )
    buf = momentum * buf + g + weight_decay * p
    p = p - lr * buf
    dtype = params.values.dtype
    return (
        ParamVector(p.astype(dtype), params.index),
        ParamVector(buf.astype(dtype), params.index),
    )
