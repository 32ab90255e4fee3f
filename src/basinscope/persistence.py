"""Binary file formats for checkpoints and datasets.

Both binary formats share one container: a 4-byte magic, a u32 version,
length-prefixed JSON sections (u32 byte count, then UTF-8 text), then raw
little-endian blocks. Checkpoints ("LLCK") hold an arch and a metadata JSON,
then the float32 parameter block. Dataset files ("LLDS") hold a header
JSON, then the u16 labels and the float32 images. All digests are SHA-256 of
file bytes.

The JSON is standard: no NaN or infinity token is written or read. Metrics
are a dict of str to finite reals, hashes, digests and splits are strings,
and provenance is a dict. The writers raise DomainError, before any file is
opened, for what the readers reject.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from . import dataops
from .errors import DomainError, FileFormatError
from .model import ArchDescriptor, ParamVector, _check_params, build_index
from .numerics import _as_flag, _as_int, _as_real
from .trainer import Checkpoint

CKPT_MAGIC = b"LLCK"
DATA_MAGIC = b"LLDS"
FORMAT_VERSION = 1


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_exact(f, n: int, section: str) -> bytes:
    """The next n bytes of the open file f; FileFormatError, before any
    read, when fewer are left, as f.read(n) would first allocate n bytes
    and a count read from a damaged file can be 2**40."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise FileFormatError(section, f"truncated: wanted {n} bytes, {left} left")
    return f.read(n)


def _read_prefixed(f, section: str) -> bytes:
    (length,) = struct.unpack("<I", _read_exact(f, 4, section))
    return _read_exact(f, length, section)


def _check_end(f, section: str) -> None:
    """Raise unless f is at its end: bytes after the last block are an error."""
    if f.read(1):
        raise FileFormatError(section, f"trailing bytes after the {section} block")


def _write_container(path, magic: bytes, sections: list[str], blocks: list[np.ndarray]) -> str:
    """Write magic, version, the length-prefixed JSON sections and the raw
    blocks; return the file digest."""
    with open(path, "wb") as f:
        f.write(magic + struct.pack("<I", FORMAT_VERSION))
        for text in sections:
            data = text.encode()
            f.write(struct.pack("<I", len(data)) + data)
        for block in blocks:
            f.write(block.tobytes())
    return sha256_file(path)


def _check_container(f, magic: bytes) -> None:
    """Read and check the magic and the version at the start of f."""
    got = _read_exact(f, 4, "magic")
    if got != magic:
        raise FileFormatError("magic", f"expected {magic!r}, got {got!r}")
    (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
    if version != FORMAT_VERSION:
        raise FileFormatError("version", f"unsupported version {version}")


def _typed(value, kind: type, what: str):
    """value, if it is a kind (str or dict); DomainError otherwise."""
    if not isinstance(value, kind):
        raise DomainError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


def _metrics(value) -> dict:
    """Checkpoint metrics as a dict of str to finite floats; DomainError otherwise."""
    metrics = _typed(value, dict, "metrics")
    return {_typed(k, str, "metrics key"): _as_real(v, f"metrics[{k!r}]") for k, v in metrics.items()}


def _dumps(section: dict) -> str:
    """section as sorted standard JSON; DomainError for a value JSON cannot
    hold (NaN or infinity included)."""
    try:
        return json.dumps(section, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as e:
        raise DomainError(f"metadata not storable as JSON: {e}") from e


def _reject_constant(token: str):
    """json.loads hook: refuse the NaN and infinity tokens ``_dumps`` never writes."""
    raise ValueError(f"non-standard JSON token {token}")


def _finite_f4(values, what: str) -> np.ndarray:
    """values as a little-endian float32 block; DomainError, before any file
    is opened, unless every value is finite in float32 as the readers
    require (a float64 past float32's range would be written as inf)."""
    with np.errstate(over="ignore"):
        block = np.ascontiguousarray(values, dtype="<f4")
    if not np.all(np.isfinite(block)):
        raise DomainError(f"{what} must be finite in float32")
    return block


def save_checkpoint(ckpt: Checkpoint, path) -> str:
    # refuse, before any file is opened, what load_checkpoint would reject;
    # a Checkpoint's fields can be reassigned after it was built
    _check_params(ckpt.params, ckpt.arch)
    meta = {
        "epoch": _as_int(ckpt.epoch, "epoch", 0),
        "metrics": _metrics(ckpt.metrics),
        "config_hash": _typed(ckpt.config_hash, str, "config_hash"),
        "rng_digest": _typed(ckpt.rng_digest, str, "rng_digest"),
        "provenance": _typed(ckpt.provenance, dict, "provenance"),
        "optimal": _as_flag(ckpt.optimal, "optimal"),
        "param_count": ckpt.params.size,
    }
    sections = [ckpt.arch.to_json(), _dumps(meta)]
    block = _finite_f4(ckpt.params.values, "parameter values")
    return _write_container(path, CKPT_MAGIC, sections, [block])


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        _check_container(f, CKPT_MAGIC)
        try:
            arch = ArchDescriptor.from_json(_read_prefixed(f, "arch").decode())
        except ValueError as e:
            raise FileFormatError("arch", f"bad arch: {e}") from e
        try:
            meta = json.loads(_read_prefixed(f, "metadata"), parse_constant=_reject_constant)
            count = _as_int(meta["param_count"], "param_count", 0)
            epoch = _as_int(meta["epoch"], "epoch", 0)
            optimal = _as_flag(meta.get("optimal", False), "optimal")
            metrics = _metrics(meta["metrics"])
            config_hash = _typed(meta["config_hash"], str, "config_hash")
            rng_digest = _typed(meta["rng_digest"], str, "rng_digest")
            provenance = _typed(meta.get("provenance", {}), dict, "provenance")
        except (KeyError, TypeError, ValueError) as e:
            raise FileFormatError("metadata", f"bad metadata: {e!r}") from e
        raw = _read_exact(f, 4 * count, "params")
        _check_end(f, "params")
    values = np.frombuffer(raw, dtype="<f4").copy()
    index = build_index(arch)
    total = index[-1].offset + index[-1].length
    if total != count:
        raise FileFormatError("params", f"arch wants {total} params, file has {count}")
    if not np.all(np.isfinite(values)):
        raise FileFormatError("params", "non-finite parameter values")
    return Checkpoint(
        arch=arch,
        params=ParamVector(values, index),
        epoch=epoch,
        metrics=metrics,
        config_hash=config_hash,
        rng_digest=rng_digest,
        provenance=provenance,
        optimal=optimal,
    )


def save_dataset(ds: dataops.Dataset, path) -> str:
    header = {
        "provenance": _typed(ds.provenance, dict, "provenance"),
        "split": _typed(ds.split, str, "split"),
        "n": len(ds),
        "image_shape": list(ds.images.shape[1:]),
    }
    with np.errstate(invalid="ignore"):
        labels = np.ascontiguousarray(ds.labels, dtype="<u2")
    # u16 wraps -1 to 65535 and 70000 to 4464; refuse what would not read back
    if not np.array_equal(labels, ds.labels):
        raise DomainError("labels must be integers in [0, 65535]")
    blocks = [labels, _finite_f4(ds.images, "pixel values")]
    return _write_container(path, DATA_MAGIC, [_dumps(header)], blocks)


def load_dataset(path) -> dataops.Dataset:
    with open(path, "rb") as f:
        _check_container(f, DATA_MAGIC)
        try:
            header = json.loads(_read_prefixed(f, "header"), parse_constant=_reject_constant)
            n = _as_int(header["n"], "n", 0)
            shape = tuple(_as_int(d, "image_shape entry", 0) for d in header["image_shape"])
            split = _typed(header["split"], str, "split")
            provenance = _typed(header["provenance"], dict, "provenance")
        except (KeyError, TypeError, ValueError) as e:
            raise FileFormatError("header", f"bad header: {e!r}") from e
        labels = np.frombuffer(_read_exact(f, 2 * n, "labels"), dtype="<u2").astype(np.int64)
        img_bytes = 4 * n * math.prod(shape)
        images = np.frombuffer(_read_exact(f, img_bytes, "images"), dtype="<f4").reshape((n, *shape)).copy()
        _check_end(f, "images")
    if not np.all(np.isfinite(images)):
        raise FileFormatError("images", "non-finite pixel values")
    return dataops.Dataset(images, labels, split, provenance)
