"""Small fixed-family convolutional classifier with manual backprop.

Architecture: a stack of circular-padded conv blocks (ReLU), a flatten, one
or more ReLU fully connected layers, and a linear classifier head. There are
no normalization layers, so every parameter is an ordinary weight or bias and
linear interpolation between two parameter vectors is well defined.

Parameters live in a flat ParamVector with a named index; each module
("conv1", ..., "fc1", "classifier") owns a contiguous slice.

Every pass (``forward``, ``backward``, ``trainer.evaluate``, a barrier
curve's points, the frozen prefixes of the analyses) runs the one
cache-tiled forward core, ``_run_layers``, on one or more parameter
vectors that share one input. Its conv layers always run in tiles of
``_TILE`` images: a tile's first-layer patches are gathered once and every
vector's conv stack runs on them. Its dense layers run per vector on the
whole batch, so a forward-only pass holds per vector only the batch's last
conv output, 0.5 MB per 256 images on TINY4. Scoring one vector is the
one-vector case, and each vector's output has the bits of that case.
``forward`` also takes each layer's float32 output from it. ``backward``
takes from it each layer's input, patches and output for the whole batch
(its records), as its weight gradients sum over the batch at once: a
records pass runs the whole batch as one tile. Every pass runs on its
caller's thread; only ``trainer.train`` runs work on a second one.

Every conv gather, the forward patches and the transposed conv's phase
columns alike, takes each pixel's C channels as C//g runs of g = gcd(C, 4)
float64 values (``_take_runs``), 32 bytes at most, through a cached
read-only run index; and a conv bias is added a whole output row (OW*Cout
values) at a time. Both do the same floating-point operations on the same
operands as a per-pixel gather and add, so every output keeps its bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SizeError
from .numerics import _as_int, _as_real
from .rng import RngStream, gaussian

_STREAM_INIT = 0x494E4954  # "INIT"


@dataclass(frozen=True)
class ArchDescriptor:
    """Shape of the network family; round-trips through JSON text. A descriptor
    is checked when it is built, its layer plan included, not at first use."""

    input_shape: tuple[int, int, int]  # (height, width, channels)
    conv_blocks: tuple[tuple[int, int, int], ...]  # (out_channels, kernel, stride)
    fc_widths: tuple[int, ...]
    num_classes: int

    def __post_init__(self):
        if len(self.input_shape) != 3 or any(len(b) != 3 for b in self.conv_blocks):
            raise SizeError("input_shape and every conv block must have three entries")
        counts = lambda values, what: tuple(_as_int(v, what, 1) for v in values)
        object.__setattr__(self, "input_shape", counts(self.input_shape, "input size"))
        object.__setattr__(self, "conv_blocks", tuple(counts(b, "conv block entry") for b in self.conv_blocks))
        object.__setattr__(self, "fc_widths", counts(self.fc_widths, "fc width"))
        object.__setattr__(self, "num_classes", _as_int(self.num_classes, "num_classes", 1))
        if len(self.conv_blocks) < 1:
            raise SizeError("need at least one conv block")
        if any(k % 2 == 0 for _, k, _ in self.conv_blocks):
            # circular "same" padding centres the kernel only for odd k
            raise SizeError("conv kernels must be odd")
        if len(self.fc_widths) < 1:
            raise SizeError("need at least one fully connected layer")
        if self.num_classes < 2:
            raise SizeError("need at least two classes")
        self.layer_plan()

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ArchDescriptor":
        """The descriptor that text, a JSON object of the four fields, holds;
        DomainError for text that is no such object, SizeError or DomainError
        for values that a descriptor refuses."""
        try:
            return cls(**json.loads(text))
        except (TypeError, json.JSONDecodeError) as e:
            raise DomainError(f"not an architecture's JSON object: {e}") from None

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


@lru_cache(maxsize=64)
def build_index(arch: ArchDescriptor) -> tuple[IndexEntry, ...]:
    """Name, offset, length and shape of every weight and bias, in plan order;
    cached per architecture (both types are frozen, so the tuple is shared)."""
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
        if values.shape != (total,):
            raise SizeError(f"values of shape {values.shape} do not match the index's ({total},)")
        self.values = values
        self.index = tuple(index)

    @classmethod
    def zeros(cls, arch: ArchDescriptor) -> "ParamVector":
        index = build_index(arch)
        total = index[-1].offset + index[-1].length
        return cls(np.zeros(total, dtype=np.float32), index)

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.index)

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
        """Write array, of the entry's shape or a flat vector of its length,
        into the entry; SizeError for any other shape, as an array of the
        same size in another shape would be written in the wrong order."""
        e = self.entry(name)
        arr = np.asarray(array, dtype=self.values.dtype)
        if arr.shape not in (e.shape, (e.length,)):
            raise SizeError(f"{name} takes shape {e.shape}, got an array of shape {arr.shape}")
        self.values[e.offset : e.offset + e.length] = arr.ravel()

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


def _check_params(params: ParamVector, arch: ArchDescriptor) -> None:
    """DomainError unless params follow arch's index table; the cached
    ``build_index`` tuple is the one ParamVector keeps, so this is one
    comparison of two identical tuples."""
    if params.index != build_index(arch):
        raise DomainError(f"params of {params.size} values do not follow the arch's index table")


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


def _run_index(pixels: np.ndarray, channels: int) -> np.ndarray:
    """Read-only run index pixel*(C//g) + j, shape pixels.shape + (C//g,),
    into a (..., pixels, C) array seen as (..., pixels*C//g, g) runs of
    g = gcd(C, 4) values: a pixel's channels are C//g runs, run j holding
    channels [j*g, (j+1)*g)."""
    runs = channels // math.gcd(channels, 4)
    index = pixels[..., None] * runs + np.arange(runs)
    index.flags.writeable = False
    return index


def _take_runs(src: np.ndarray, index: np.ndarray) -> np.ndarray:
    """C-contiguous (B,) + index.shape[:-1] + (C,) gather of src's
    (B, ..., C) pixels through a ``_run_index`` run index: run r of image b
    is src.reshape(B, -1, g)[b, r], g = C // index.shape[-1].

    A run is at most 4 float64 values, 32 bytes: numpy's take copies a chunk
    of up to 32 bytes with one fixed-size move, but a whole pixel of 3 (24
    bytes), 8 or 16 channels with memmove; the copied values are the same."""
    bsz, channels = src.shape[0], src.shape[-1]
    # the method, not np.take, which adds a Python-level dispatch to each call
    runs = src.reshape(bsz, -1, channels // index.shape[-1]).take(index, axis=1)
    return runs.reshape(runs.shape[:-2] + (channels,))


@lru_cache(maxsize=64)
def _patch_indices(h: int, wid: int, kernel: int, stride: int, channels: int) -> np.ndarray:
    """Run index (``_run_index``) of the flat pixels rows*wid + cols, shape
    (OH, OW, k, k, C//g): tap t of output o reads pixel
    (o*stride + t - (k-1)//2) mod size along each axis."""
    taps = np.arange(kernel) - (kernel - 1) // 2
    rows = (np.arange(h // stride)[:, None] * stride + taps) % h  # (OH, k)
    cols = (np.arange(wid // stride)[:, None] * stride + taps) % wid  # (OW, k)
    return _run_index(rows[:, None, :, None] * wid + cols[None, :, None, :], channels)


def _gather_patches(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """C-contiguous (B, OH, OW, k, k, Cin) patch tensor for a circular-padded
    conv, so the GEMM's (B*OH*OW, k*k*Cin) reshape is a view; each pixel's
    channels are taken in runs of at most 32 bytes (``_take_runs``)."""
    _, h, wid, cin = x.shape
    return _take_runs(x, _patch_indices(h, wid, kernel, stride, cin))


@lru_cache(maxsize=64)
def _phase_indices(oh: int, ow: int, kernel: int, stride: int, channels: int) -> tuple:
    """Sub-pixel split of a stride-s transposed conv over a (OH, OW, C)
    gradient: one (p, q, taps, index) per output phase (p, q), the pixels
    (p + s*i, q + s*j) of the (s*OH, s*OW) input gradient, that some tap
    reaches (with k < s some phases get none and stay zero).

    Tap t of the flipped kernel reads the zero-stuffed upsample at
    (y + t - (k-1)//2) mod size along each axis; on phase p that is a stuffed
    zero unless p + t - (k-1)//2 is a multiple of s, and then it is gout row
    i + (p + t - (k-1)//2)//s mod OH. taps lists the phase's flipped-kernel
    taps (tr, tc) in row-major order as flat indices (k-1-tr)*k + (k-1-tc)
    into the unflipped kernel's k*k tap axis; index is the run index
    (``_run_index``) of the flat pixels rows*OW + cols of gout, shape
    (OH, OW, rows' taps, cols' taps, C//g). Stride 1 is the single phase
    with every tap."""
    taps = np.arange(kernel)
    live = [taps[(p + taps - (kernel - 1) // 2) % stride == 0] for p in range(stride)]
    phases = []
    for p in range(stride):
        rows = (np.arange(oh)[:, None] + (p + live[p] - (kernel - 1) // 2) // stride) % oh
        for q in range(stride):
            cols = (np.arange(ow)[:, None] + (q + live[q] - (kernel - 1) // 2) // stride) % ow
            flipped = ((kernel - 1 - live[p])[:, None] * kernel + (kernel - 1 - live[q])).ravel()
            if flipped.size:
                flipped.flags.writeable = False
                index = _run_index(rows[:, None, :, None] * ow + cols[None, :, None, :], channels)
                phases.append((p, q, flipped, index))
    return tuple(phases)


def _conv_backward(gout: np.ndarray, x_shape, w: np.ndarray, patches, stride: int, need_input_grad: bool = True):
    """(grad_x, grad_w, grad_b); grad_x is None when need_input_grad is False.

    grad_x is the transposed conv of gout (flipped kernel, channel axes
    swapped), computed phase by phase (``_phase_indices``): phase (p, q) is a
    stride-1 conv of gout with only the taps that land on it, so no stuffed
    zero is gathered or multiplied. The taps keep the (tap row, tap col,
    Cout) K order of the zero-stuffed form, so every element sums the same
    nonzero terms in the same order; where the BLAS kernel adds a dot
    product's terms in that order (OpenBLAS 0.3.31 does for every TINY4
    layer and for stride 1) the bits are the zero-stuffed form's. Each
    phase writes its GEMM result plus +0.0 into its own strided slice of
    grad_x, the sum the zero-stuffed form adds to its zeroed array, so its
    signed zeros are kept too. Elsewhere the two differ by reassociation
    only. A phase's gout columns are gathered in runs of at most 32 bytes
    (``_take_runs``), as the forward patches are.

    grad_w is the (k, k, Cin, Cout) view of the transposed GEMM
    (gout^T patches)^T, which has the bits of patches^T gout and, on every
    TINY4 conv, costs 6-14% less. grad_b sums gout's rows with einsum,
    which adds them in the order of ``gout.sum(axis=(0, 1, 2))`` and, like
    it, starts from +0.0 (so a channel of -0.0 sums to +0.0 in both): the
    same bits at about a quarter of the cost. The jobs run in order on the
    caller."""
    k, _, cin, cout = w.shape
    bsz = x_shape[0]
    oh, ow = patches.shape[1:3]
    flat = patches.reshape(bsz * oh * ow, k * k * cin)
    gflat = gout.reshape(bsz * oh * ow, cout)
    grad_w = np.dot(gflat.T, flat).T.reshape(k, k, cin, cout)
    grad_b = np.einsum("ij->j", gflat)
    if not need_input_grad:
        return None, grad_w, grad_b
    phases = _phase_indices(oh, ow, k, stride, cout)
    # with k < stride some phases get no tap and stay zero
    grad_x = (np.empty if len(phases) == stride * stride else np.zeros)(x_shape)
    # the kernel with channel axes swapped, per tap (Cout, Cin); C order, as
    # BLAS takes another kernel, and other bits, for a transpose
    swapped = np.ascontiguousarray(w.reshape(k * k, cin, cout).transpose(0, 2, 1))
    for p, q, taps, index in phases:
        cols = _take_runs(gout, index).reshape(bsz * oh * ow, taps.size * cout)
        # the phase's flipped taps, rows (tap, Cout)
        sub = swapped[taps].reshape(-1, cin)
        np.add((cols @ sub).reshape(bsz, oh, ow, cin), 0.0, out=grad_x[:, p::stride, q::stride])
    return grad_x, grad_w, grad_b


INPUT_CENTER = 0.5  # images are in [0, 1]; centering keeps early training stable


def _network_input(arch: ArchDescriptor, batch) -> np.ndarray:
    """Shape-checked, centered float64 input to the first layer; DomainError
    for a batch of no images."""
    x = np.asarray(batch)
    if x.shape[1:] != tuple(arch.input_shape):
        raise SizeError(f"batch shape {x.shape[1:]} does not match arch input {arch.input_shape}")
    if x.shape[0] == 0:
        raise DomainError("cannot run an empty batch")
    return np.subtract(x, INPUT_CENTER, dtype=np.float64)


# Images per tile of the forward core's conv stack (``_run_layers``): a tile's
# patches and conv outputs stay in cache from gather to ReLU.
_TILE = 8

def _apply_layer(layer: dict, x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One layer's output: the affine map of x, then bias and (on every
    layer but the classifier) ReLU in place on the fresh GEMM output. For a
    conv layer, x holds its gathered (B, OH, OW, k, k, Cin) patches and the
    GEMM runs on their (B*OH*OW, k*k*Cin) view; for a dense layer, x is the
    (B, features) input. b is ``_weights``'s bias row, added to the output
    seen as rows of b.size values: a conv's output row of OW pixels takes
    its OW bias copies in one pass, instead of a pass per pixel over Cout
    values, with the same sums."""
    if layer["kind"] == "conv":
        cout = layer["cout"]
        out = (x.reshape(-1, w.size // cout) @ w.reshape(-1, cout)).reshape(x.shape[:3] + (cout,))
    else:
        out = x @ w.T
    rows = out.reshape(-1, b.size)  # a view: the GEMM output is C-contiguous
    rows += b
    if layer["kind"] != "classifier":
        np.maximum(out, 0.0, out=out)
    return out


def _weights(params: ParamVector, layer: dict) -> tuple[np.ndarray, np.ndarray]:
    """A layer's weight in float64 and its bias row for ``_apply_layer``:
    the float64 bias, tiled once per call across one output row (OW copies)
    for a conv layer."""
    name = layer["name"]
    w, b = params.get(f"{name}.weight").astype(np.float64), params.get(f"{name}.bias").astype(np.float64)
    if layer["kind"] == "conv":
        b = np.tile(b, layer["in_hw"][1] // layer["stride"])
    return w, b


def _run_layers(
    vectors: list[ParamVector],
    arch: ArchDescriptor,
    x: np.ndarray | None,
    start: int = 0,
    stop: int | None = None,
    *,
    patches: np.ndarray | None = None,
    acts: list | None = None,
    records: list | None = None,
) -> list[np.ndarray]:
    """The forward core: for each parameter vector of the sequence
    vectors, the output of layers [start, stop) of the plan on x, the
    float64 input to layer start (for start=0, ``_network_input``) that
    every vector shares. A caller that scores one vector passes [params].
    patches, when given, are layer start's gathered conv patches of x, so
    the gather is skipped and x is read only for the batch length, which
    the patches must share (else SizeError); x may then be None, and the
    batch length is the patches'. acts, when given,
    receives one list per vector of (name, output) pairs, one per layer,
    the output in float32 for the whole batch: conv tiles are written into
    one float32 array per layer as they are made. records, given only with
    one vector, receives one (layer, x_in, w, patches, post) per layer for
    ``backward``: its plan entry, its input (flattened for a dense layer),
    float64 weight, conv patches (None for a dense layer) and output, each
    for the whole batch. Bias and ReLU are applied in place to the GEMM
    output, so post > 0 is the ReLU's mask (the same as pre > 0, NaN
    included).

    The conv layers run depth-first over tiles of ``_TILE`` images (cache
    blocking; Goto & van de Geijn 2008): each tile's layer-start patches
    are gathered once, or taken as a view of the given patches (the patch
    tensor is C-contiguous along the batch axis), and every vector's conv
    stack then runs on them, multiplied, biased and rectified while the
    tile is in cache, instead of streaming whole-batch patch tensors
    through memory step by step. Each vector's last conv output is written
    into one float64 array for the whole batch, the only thing held per
    vector (0.5 MB per 256 images on TINY4), and the dense layers run once
    per vector on it. A batch of at most ``_TILE`` images is one tile, the
    same GEMMs as an untiled pass.

    The tiles run one after another on the calling thread, so one tile's
    working set is live at a time. A tile is too little work to share with
    a second thread: on a 2-vCPU VM, two threads each running whole TINY4
    tiles did 0.8-1.8 times one thread's work, 1.0-1.1 in the median.

    A records pass is one tile of the whole batch, and each conv layer's
    patches and output are its records. With ``_TILE``-image tiles
    instead, each conv GEMM would stay below OpenBLAS 0.3.31's
    small-matrix size, where a row costs about half as much, and on a
    2-vCPU Xeon VM a fine-tune ran about 2% faster on one CPU; but on
    both, beside ``train``'s scoring on the worker, it ran about 3% slower,
    so records take the whole batch.

    Each vector's GEMMs have the operands and shapes of its own one-vector
    pass, so sharing a tile changes no bit of any vector's output, whatever
    the other vectors hold. Tiling changes only how many rows a conv GEMM
    call has. OpenBLAS 0.3.31 gives every TINY4 conv row the same bits at
    any row count, so the logits are the untiled loop's; convs with 2-4 or
    9-12 output channels (SMALL's conv1 among them) may differ by
    reassociation of each dot product. Dense GEMM rows change bits with
    the row count (fc1 below 64 rows, the classifier below 128), so dense
    layers are never tiled.
    """
    plan = arch.layer_plan()[start:stop]
    weights = []
    for params in vectors:
        _check_params(params, arch)
        weights.append([_weights(params, layer) for layer in plan])
    convs = sum(layer["kind"] == "conv" for layer in plan)  # the plan's conv layers come first
    n = (patches if x is None else x).shape[0]
    if patches is not None and patches.shape[0] != n:
        raise SizeError(f"patches of {patches.shape[0]} images given for a batch of {n}")
    tile = _TILE if records is None else n
    shapes = [(n, *(size // layer["stride"] for size in layer["in_hw"]), layer["cout"]) for layer in plan[:convs]]
    outs = [np.empty(shapes[-1]) if convs else x for _ in vectors]
    kept = (  # per vector, each layer's (name, whole-batch float32 output), when acts is given
        [[(layer["name"], np.empty(shape, np.float32)) for layer, shape in zip(plan, shapes)] for _ in vectors]
        if acts is not None
        else None
    )
    for i in range(0, n if convs else 0, tile):
        rows = slice(i, i + tile)
        if patches is None:
            shared = _gather_patches(x[rows], plan[0]["kernel"], plan[0]["stride"])
        else:
            shared = patches[rows]
        for v, layers in enumerate(weights):
            # layer start's GEMM reads only its patches; its input is read for its records
            y, tile_patches = (None if x is None else x[rows]), shared
            for j, (layer, (w, b)) in enumerate(zip(plan[:convs], layers)):
                if j:
                    tile_patches = _gather_patches(y, layer["kernel"], layer["stride"])
                out = _apply_layer(layer, tile_patches, w, b)
                if records is not None:
                    records.append((layer, y, w, tile_patches, out))
                y = out
                if kept is not None:
                    kept[v][j][1][rows] = y
            outs[v][rows] = y
    for v, layers in enumerate(weights):
        for layer, (w, b) in zip(plan[convs:], layers[convs:]):
            x_in = outs[v].reshape(n, -1)
            outs[v] = _apply_layer(layer, x_in, w, b)
            if kept is not None:
                kept[v].append((layer["name"], outs[v].astype(np.float32)))
            if records is not None:
                records.append((layer, x_in, w, None, outs[v]))
    if kept is not None:
        acts.extend(kept)
    return outs


def _module_input(params: ParamVector, arch: ArchDescriptor, batch, start: int):
    """The frozen prefix's part of a forward pass that
    ``_run_layers(..., start, patches=...)`` completes, as (x, patches):
    for a conv layer start, (None, its gathered patches), as the core reads
    x only for its length once it has the patches; otherwise (the input to
    layer start, None)."""
    x = _run_layers([params], arch, _network_input(arch, batch), 0, start)[0]
    layer = arch.layer_plan()[start]
    if layer["kind"] != "conv":
        return x, None
    return None, _gather_patches(x, layer["kernel"], layer["stride"])


def forward(params: ParamVector, arch: ArchDescriptor, batch) -> tuple[np.ndarray, list]:
    """Logits (batch, num_classes) in float64 plus per-module post-activation
    outputs in storage precision: the core (``_run_layers``) on the network
    input, so on one batch its logits are ``evaluate``'s, and only the
    float32 activations outlive the tile that made them."""
    acts = []
    logits = _run_layers([params], arch, _network_input(arch, batch), acts=acts)[0]
    return logits, acts[0]


def _check_labels(labels: np.ndarray, num_classes: int, n: int) -> None:
    """labels must be n >= 1 integers in [0, num_classes), one per image."""
    if labels.shape != (n,):
        raise SizeError(f"labels of shape {labels.shape} do not match a batch of {n}")
    if n == 0:
        raise DomainError("cannot score an empty batch")
    if not np.issubdtype(labels.dtype, np.integer):
        raise DomainError(f"labels must be integers, not {labels.dtype}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise DomainError(f"labels must lie in [0, {num_classes})")


def _nll(z: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row cross-entropy lse(z) - z[label] of float64 logits z, and the
    softmax probabilities. Both terms come from the shifted logits z - m, so
    the loss does not round at the scale of max|z|."""
    m = z.max(axis=1, keepdims=True)
    ez = np.exp(z - m)
    sez = ez.sum(axis=1)
    return np.log(sez) - (z[np.arange(z.shape[0]), labels] - m[:, 0]), ez / sez[:, None]


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and d(loss)/d(logits), computed in float64, of
    (n, C) logits and their n labels; SizeError or DomainError unless the
    labels are n integers in [0, C) (``_check_labels``)."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise SizeError(f"logits of shape {z.shape} are not (batch, classes)")
    labels = np.asarray(labels)
    _check_labels(labels, z.shape[1], z.shape[0])
    nll, dlogits = _nll(z, labels)
    n = nll.shape[0]
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return float(np.sum(nll)) / n, dlogits


def backward(params: ParamVector, arch: ArchDescriptor, batch, labels) -> tuple[float, ParamVector]:
    """Mean cross-entropy loss and its gradient as a ParamVector. Its
    records come from the forward core (``_run_layers``) as one tile of the
    whole batch, whose patches and outputs the weight gradients sum over;
    the labels are checked once, by ``softmax_cross_entropy``. Every
    gradient is written into one float64 vector, cast once to the
    parameters' dtype: the bits of a cast per entry."""
    records = []
    logits = _run_layers([params], arch, _network_input(arch, batch), records=records)[0]
    loss, g = softmax_cross_entropy(logits, labels)
    grad = np.empty(params.size)
    for depth in reversed(range(len(records))):
        layer, x_in, w, patches, post = records[depth]
        if layer["kind"] != "classifier":
            # in place, as each g is fresh: a fresh product costs about half
            # again as much
            g = g.reshape(post.shape)
            g *= post > 0
        if layer["kind"] == "conv":
            # nothing reads the network input's gradient
            g_in, gw, gb = _conv_backward(g, x_in.shape, w, patches, layer["stride"], need_input_grad=depth > 0)
        else:
            g_in, gw, gb = g @ w, g.T @ x_in, g.sum(axis=0)
        # the index holds each layer's weight and then its bias, in plan order
        for e, value in zip(params.index[2 * depth : 2 * depth + 2], (gw, gb)):
            grad[e.offset : e.offset + e.length].reshape(e.shape)[...] = value
        g = g_in
    return loss, ParamVector(grad.astype(params.values.dtype), params.index)


def sgd_step(
    params: ParamVector,
    grad: ParamVector,
    lr: float,
    momentum_buf: ParamVector | None,
    momentum: float,
    weight_decay: float,
) -> tuple[ParamVector, ParamVector]:
    """buf' = momentum*buf + grad + wd*params; params' = params - lr*buf'."""
    lr = _as_real(lr, "lr", above=0)
    momentum = _as_real(momentum, "momentum", least=0, below=1)
    weight_decay = _as_real(weight_decay, "weight_decay", least=0)
    if not params.same_index(grad):
        raise DomainError("params and grad have different index tables")
    if momentum_buf is not None and not params.same_index(momentum_buf):
        raise DomainError("params and momentum_buf have different index tables")
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
