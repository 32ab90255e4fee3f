"""Binary file formats, CSV/JSON emission, and run manifests.

Both binary formats share one container: a 4-byte magic, a u32 version,
length-prefixed JSON sections (u32 byte count, then UTF-8 text), then raw
little-endian blocks. Checkpoints ("LLCK") hold an arch and a metadata JSON,
then the float32 parameter block. Dataset files ("LLDS") hold a header
JSON, then the u16 labels and the float32 images. All digests are SHA-256 of
file bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import time
from pathlib import Path

import numpy as np

from . import __version__, dataops
from .errors import DomainError, FileFormatError
from .model import ArchDescriptor, ParamVector, build_index
from .numerics import _as_flag, _as_int
from .trainer import Checkpoint

CKPT_MAGIC = b"LLCK"
DATA_MAGIC = b"LLDS"
FORMAT_VERSION = 1


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_exact(f, n: int, section: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise FileFormatError(section, f"truncated: wanted {n} bytes, got {len(data)}")
    return data


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


def save_checkpoint(ckpt: Checkpoint, path) -> str:
    meta = {
        "epoch": ckpt.epoch,
        "metrics": ckpt.metrics,
        "config_hash": ckpt.config_hash,
        "rng_digest": ckpt.rng_digest,
        "provenance": ckpt.provenance,
        "optimal": ckpt.optimal,
        "param_count": ckpt.params.size,
    }
    sections = [ckpt.arch.to_json(), json.dumps(meta, sort_keys=True)]
    return _write_container(path, CKPT_MAGIC, sections, [np.ascontiguousarray(ckpt.params.values, dtype="<f4")])


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        _check_container(f, CKPT_MAGIC)
        try:
            arch = ArchDescriptor.from_json(_read_prefixed(f, "arch").decode())
        except (TypeError, ValueError) as e:
            raise FileFormatError("arch", f"bad arch: {e}") from e
        try:
            meta = json.loads(_read_prefixed(f, "metadata"))
            count = _as_int(meta["param_count"], "param_count", 0)
            epoch = _as_int(meta["epoch"], "epoch", 0)
            optimal = _as_flag(meta.get("optimal", False), "optimal")
            metrics, config_hash, rng_digest = meta["metrics"], meta["config_hash"], meta["rng_digest"]
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
        provenance=meta.get("provenance", {}),
        optimal=optimal,
    )


def save_dataset(ds: dataops.Dataset, path) -> str:
    header = {
        "provenance": ds.provenance,
        "split": ds.split,
        "n": len(ds),
        "image_shape": list(ds.images.shape[1:]),
    }
    blocks = [np.ascontiguousarray(ds.labels, dtype="<u2"), np.ascontiguousarray(ds.images, dtype="<f4")]
    return _write_container(path, DATA_MAGIC, [json.dumps(header, sort_keys=True)], blocks)


def load_dataset(path) -> dataops.Dataset:
    with open(path, "rb") as f:
        _check_container(f, DATA_MAGIC)
        try:
            header = json.loads(_read_prefixed(f, "header"))
            n = _as_int(header["n"], "n", 0)
            shape = tuple(_as_int(d, "image_shape entry", 0) for d in header["image_shape"])
            split, provenance = header["split"], header["provenance"]
        except (KeyError, TypeError, ValueError) as e:
            raise FileFormatError("header", f"bad header: {e!r}") from e
        labels = np.frombuffer(_read_exact(f, 2 * n, "labels"), dtype="<u2").astype(np.int64)
        img_bytes = 4 * n * math.prod(shape)
        images = np.frombuffer(_read_exact(f, img_bytes, "images"), dtype="<f4").reshape((n, *shape)).copy()
        _check_end(f, "images")
    if not np.all(np.isfinite(images)):
        raise FileFormatError("images", "non-finite pixel values")
    return dataops.Dataset(images, labels, split, provenance)


def format_real(value: float) -> str:
    """CSV real formatting: 9 significant digits, '.' separator."""
    return f"{float(value):.9g}"


def emit_table(rows, schema, path) -> str:
    """RFC-4180-style CSV with LF endings; returns the file digest.

    schema: sequence of (column_name, kind) with kind in str|int|real.
    """
    kinds = [k for _, k in schema]
    if any(k not in ("str", "int", "real") for k in kinds):
        raise DomainError(f"bad schema kinds: {kinds}")
    lines = [",".join(name for name, _ in schema)]
    for row in rows:
        if len(row) != len(schema):
            raise DomainError(f"row width {len(row)} does not match schema width {len(schema)}")
        cells = []
        for value, kind in zip(row, kinds):
            if kind == "int":
                cells.append(str(_as_int(value, "an int cell")))
            elif kind == "real":
                if isinstance(value, bool) or not isinstance(value, (int, float, np.floating, np.integer)):
                    raise DomainError(f"expected real, got {value!r}")
                cells.append(format_real(value))
            else:
                value = str(value)
                if any(ch in value for ch in ",\"\n"):
                    value = '"' + value.replace('"', '""') + '"'
                cells.append(value)
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return sha256_file(path)


def write_json(obj, path) -> str:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n")
    return sha256_file(path)


def make_manifest(run_id: str, command: str, config: dict, inputs: dict, outputs: list, seed: int) -> dict:
    """Manifest for one run; inputs/outputs map logical names to file paths."""
    return {
        "run_id": run_id,
        "command": command,
        "config": config,
        "inputs": {name: {"path": str(p), "sha256": sha256_file(p)} for name, p in inputs.items()},
        "outputs": [{"path": str(p), "sha256": sha256_file(p)} for p in outputs],
        "seed": seed,
        "toolkit_version": __version__,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_manifest(manifest: dict, out_dir) -> Path:
    path = Path(out_dir) / f"{manifest['run_id']}.manifest.json"
    write_json(manifest, path)
    return path


def verify_manifest(manifest_path) -> list[str]:
    """Recompute digests of every referenced file; return mismatch messages."""
    manifest = json.loads(Path(manifest_path).read_text())
    problems = []
    for name, entry in manifest["inputs"].items():
        if not Path(entry["path"]).exists():
            problems.append(f"input {name}: missing {entry['path']}")
        elif sha256_file(entry["path"]) != entry["sha256"]:
            problems.append(f"input {name}: digest mismatch at {entry['path']}")
    for entry in manifest["outputs"]:
        if not Path(entry["path"]).exists():
            problems.append(f"output missing: {entry['path']}")
        elif sha256_file(entry["path"]) != entry["sha256"]:
            problems.append(f"output digest mismatch: {entry['path']}")
    return problems
