import json
import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import basinscope
from basinscope.dataops import domain_spec, generate
from basinscope.errors import DomainError, FileFormatError
from basinscope.model import TINY4, ArchDescriptor, ParamVector, init_random
from basinscope.persistence import (
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
    sha256_file,
)
from basinscope.rng import RngStream
from basinscope.trainer import Checkpoint


def make_ckpt(seed=1, epoch=7):
    return Checkpoint(
        arch=TINY4,
        params=init_random(TINY4, RngStream(seed)),
        epoch=epoch,
        metrics={"train_loss": 0.5, "train_acc": 0.9, "test_loss": 0.7, "test_acc": 0.8},
        config_hash="abc123",
        rng_digest="def456",
        provenance={"data": {"domains": ["source"]}},
        optimal=True,
    )


def ckpt_bytes(arch: dict, meta: dict, count: int = 0) -> bytes:
    """An LLCK file built by hand from arch and metadata dicts."""
    arch_json = json.dumps(arch).encode()
    meta_json = json.dumps(meta).encode()
    return (
        b"LLCK"
        + struct.pack("<II", 1, len(arch_json))
        + arch_json
        + struct.pack("<I", len(meta_json))
        + meta_json
        + b"\x00" * (4 * count)
    )


def good_meta() -> dict:
    return {
        "param_count": init_random(TINY4, RngStream(1)).size,
        "epoch": 1,
        "metrics": {},
        "config_hash": "abc",
        "rng_digest": "def",
    }


GOOD_HEADER = {"n": 0, "image_shape": [16, 16, 3], "split": "train", "provenance": {}}


def write_header_only_dataset(path, header: dict) -> None:
    """An LLDS file built by hand: header and no data."""
    header_json = json.dumps(header).encode()
    path.write_bytes(b"LLDS" + struct.pack("<II", 1, len(header_json)) + header_json)


def write_one_image_dataset(path, image: np.ndarray) -> None:
    """An LLDS file built by hand: one image of label 0."""
    header_json = json.dumps({**GOOD_HEADER, "n": 1}).encode()
    blocks = np.zeros(1, dtype="<u2").tobytes() + image.astype("<f4").tobytes()
    path.write_bytes(b"LLDS" + struct.pack("<II", 1, len(header_json)) + header_json + blocks)


def dataset_bytes(header: dict, count: int) -> bytes:
    """An LLDS file built by hand: header, then count zero labels and zero 16 x 16 x 3 images."""
    header_json = json.dumps(header).encode()
    blocks = np.zeros(count, dtype="<u2").tobytes() + np.zeros((count, 16, 16, 3), dtype="<f4").tobytes()
    return b"LLDS" + struct.pack("<II", 1, len(header_json)) + header_json + blocks


@pytest.mark.parametrize(
    "kind, key, value",
    [("LLCK", "epoch", value) for value in (2.7, True, "5", -1)]
    + [("LLCK", "optimal", "no"), ("LLCK", "param_count", 12266.0)]
    + [("LLDS", "n", "3"), ("LLDS", "n", 3.0), ("LLDS", "image_shape", [16.0, 16, 3])]
    + [("LLCK", "metrics", []), ("LLCK", "metrics", {"test_acc": float("nan")}), ("LLCK", "config_hash", 1)]
    + [("LLCK", "provenance", []), ("LLCK", "provenance", {"loss": float("inf")}), ("LLCK", "rng_digest", None)]
    + [("LLDS", "provenance", []), ("LLDS", "provenance", {"x": float("nan")}), ("LLDS", "split", 0)],
    ids=[
        "epoch_real", "epoch_bool", "epoch_string", "epoch_negative", "optimal_string",
        "param_count_real", "n_string", "n_real", "shape_entry_real",
        "metrics_list", "metric_nan", "config_hash_int", "provenance_list", "provenance_inf_token",
        "rng_digest_null", "llds_provenance_list", "llds_nan_token", "split_int",
    ],
)
def test_header_counts_and_flags_follow_the_argument_rules(tmp_path, kind, key, value):
    """A count read from a file is an int at least 0, a flag a bool, metrics a
    dict of str to finite reals, a hash, digest or split a str and provenance
    a dict, and no JSON section holds a NaN or infinity token. Each file is
    whole and loads with the field's own value, so only the field's value
    rejects it, naming the metadata or header section."""
    if kind == "LLCK":
        load, section, path = load_checkpoint, "metadata", tmp_path / "f.llck"
        count = good_meta()["param_count"]
        make = lambda fields: ckpt_bytes(json.loads(TINY4.to_json()), {**good_meta(), **fields}, count)
    else:
        load, section, path = load_dataset, "header", tmp_path / "f.llds"
        make = lambda fields: dataset_bytes({**GOOD_HEADER, "n": 3, **fields}, 3)
    path.write_bytes(make({}))
    load(path)
    path.write_bytes(make({key: value}))
    with pytest.raises(FileFormatError) as err:
        load(path)
    assert err.value.section == section


class TestCheckpointIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        ckpt = make_ckpt()
        path = tmp_path / "a.llck"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.equals(ckpt)

    def test_digest_stable(self, tmp_path):
        ckpt = make_ckpt()
        d1 = save_checkpoint(ckpt, tmp_path / "a.llck")
        d2 = save_checkpoint(ckpt, tmp_path / "b.llck")
        assert d1 == d2

    def test_bytes_follow_the_container_layout(self, tmp_path):
        ckpt = make_ckpt()
        path = tmp_path / "a.llck"
        digest = save_checkpoint(ckpt, path)
        meta = {
            "epoch": 7, "metrics": ckpt.metrics, "config_hash": "abc123", "rng_digest": "def456",
            "provenance": ckpt.provenance, "optimal": True, "param_count": ckpt.params.size,
        }
        arch_json, meta_json = TINY4.to_json().encode(), json.dumps(meta, sort_keys=True).encode()
        want = (
            b"LLCK" + struct.pack("<II", 1, len(arch_json)) + arch_json + struct.pack("<I", len(meta_json)) + meta_json
            + ckpt.params.values.astype("<f4").tobytes()
        )
        assert path.read_bytes() == want
        # recorded before both formats moved onto one container writer
        assert digest == "309b8902358d5c39df8410a99f67a8b60ebd0a3d66355af6b1071c1fdce3f1ef"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.llck"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FileFormatError) as err:
            load_checkpoint(path)
        assert err.value.section == "magic"

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.llck"
        path.write_bytes(b"LLCK" + (99).to_bytes(4, "little") + b"\x00" * 16)
        with pytest.raises(FileFormatError) as err:
            load_checkpoint(path)
        assert err.value.section == "version"

    def test_arch_missing_field_names_arch_section(self, tmp_path):
        arch = json.loads(TINY4.to_json())
        del arch["num_classes"]
        arch_json = json.dumps(arch).encode()
        path = tmp_path / "arch.llck"
        path.write_bytes(b"LLCK" + struct.pack("<II", 1, len(arch_json)) + arch_json)
        with pytest.raises(FileFormatError) as err:
            load_checkpoint(path)
        assert err.value.section == "arch"

    def test_arch_unknown_field_names_arch_section(self, tmp_path):
        arch = json.loads(TINY4.to_json())
        arch["dropout"] = 0.5
        arch_json = json.dumps(arch).encode()
        path = tmp_path / "arch.llck"
        path.write_bytes(b"LLCK" + struct.pack("<II", 1, len(arch_json)) + arch_json)
        with pytest.raises(FileFormatError) as err:
            load_checkpoint(path)
        assert err.value.section == "arch"

    def test_hand_built_file_loads(self, tmp_path):
        meta = good_meta()
        path = tmp_path / "ok.llck"
        path.write_bytes(ckpt_bytes(json.loads(TINY4.to_json()), meta, meta["param_count"]))
        assert load_checkpoint(path).epoch == 1

    @pytest.mark.parametrize(
        "edit",
        [
            {"input_shape": [16, 16]},
            {"conv_blocks": [[8, 3, 3]]},
            {"conv_blocks": [[8, 4, 1]]},
            {"conv_blocks": [[8, 33, 1]]},
            {"num_classes": 1},
        ],
        ids=["two_entry_shape", "stride_not_dividing", "even_kernel", "kernel_too_large", "one_class"],
    )
    def test_arch_bad_value_names_arch_section(self, tmp_path, edit):
        arch = {**json.loads(TINY4.to_json()), **edit}
        path = tmp_path / "arch.llck"
        path.write_bytes(ckpt_bytes(arch, good_meta()))
        with pytest.raises(FileFormatError) as err:
            load_checkpoint(path)
        assert err.value.section == "arch"

    @pytest.mark.parametrize(
        "meta",
        [{k: v for k, v in good_meta().items() if k != key} for key in good_meta()]
        + [[1, 2], {**good_meta(), "epoch": "one"}, {**good_meta(), "param_count": -1}],
        ids=[f"no_{key}" for key in good_meta()] + ["not_object", "epoch_not_int", "negative_count"],
    )
    def test_bad_metadata_names_metadata_section(self, tmp_path, meta):
        path = tmp_path / "meta.llck"
        path.write_bytes(ckpt_bytes(json.loads(TINY4.to_json()), meta))
        with pytest.raises(FileFormatError) as err:
            load_checkpoint(path)
        assert err.value.section == "metadata"

    def test_truncation_names_section(self, tmp_path):
        ckpt = make_ckpt()
        path = tmp_path / "a.llck"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        truncated = tmp_path / "trunc.llck"
        truncated.write_bytes(blob[: len(blob) - 100])
        with pytest.raises(FileFormatError) as err:
            load_checkpoint(truncated)
        assert err.value.section == "params"

    def test_trailing_bytes_name_params_section(self, tmp_path):
        path = tmp_path / "a.llck"
        save_checkpoint(make_ckpt(), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FileFormatError) as err:
            load_checkpoint(path)
        assert err.value.section == "params"

    @pytest.mark.parametrize("value", [1e300, np.nan, -np.inf], ids=["past_float32", "nan", "-inf"])
    def test_non_finite_parameter_refused_before_writing(self, tmp_path, value):
        ckpt = make_ckpt()
        ckpt.params = ParamVector(ckpt.params.values.astype(np.float64), ckpt.params.index)
        ckpt.params.values[5] = value
        path = tmp_path / "bad.llck"
        with pytest.raises(DomainError):
            save_checkpoint(ckpt, path)  # RuntimeWarnings are errors in this suite
        assert not path.exists()

    def test_params_of_another_arch_refused_before_writing(self, tmp_path):
        # TINY4's parameters under a one-conv arch were written, then read
        # back as "arch wants 66122 params, file has 12266"
        ckpt = make_ckpt()
        ckpt.arch = ArchDescriptor(TINY4.input_shape, TINY4.conv_blocks[:1], TINY4.fc_widths, TINY4.num_classes)
        path = tmp_path / "bad.llck"
        with pytest.raises(DomainError, match="index table"):
            save_checkpoint(ckpt, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "field,value",
        [("epoch", -1), ("epoch", 2.5), ("optimal", "yes"), ("metrics", []), ("metrics", {"test_acc": float("nan")})]
        + [("metrics", {1: 0.5}), ("config_hash", 1), ("rng_digest", None), ("provenance", [])],
        ids=[
            "epoch_negative", "epoch_real", "optimal_string", "metrics_list", "metric_nan", "metric_key_int",
            "config_hash_int", "rng_digest_none", "provenance_list",
        ],
    )
    def test_metadata_the_loader_rejects_refused_before_writing(self, tmp_path, field, value):
        ckpt = make_ckpt()
        setattr(ckpt, field, value)
        path = tmp_path / "bad.llck"
        with pytest.raises(DomainError, match=field):
            save_checkpoint(ckpt, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [float("nan"), b"abc"], ids=["nan", "bytes"])
    def test_provenance_standard_json_cannot_hold_refused_before_writing(self, tmp_path, value):
        ckpt = make_ckpt()
        ckpt.provenance = {"data": value}
        path = tmp_path / "bad.llck"
        with pytest.raises(DomainError, match="not storable as JSON"):
            save_checkpoint(ckpt, path)
        assert not path.exists()

    def test_numpy_epoch_and_flag_saved_as_python_values(self, tmp_path):
        ckpt = make_ckpt()
        digest = save_checkpoint(ckpt, tmp_path / "a.llck")
        ckpt.epoch, ckpt.optimal = np.int64(ckpt.epoch), np.True_
        assert save_checkpoint(ckpt, tmp_path / "b.llck") == digest

    def test_param_count_not_matching_arch_names_params_section(self, tmp_path):
        meta = {**good_meta(), "param_count": good_meta()["param_count"] - 1}
        path = tmp_path / "count.llck"
        path.write_bytes(ckpt_bytes(json.loads(TINY4.to_json()), meta, meta["param_count"]))
        with pytest.raises(FileFormatError, match="arch wants 12266 params, file has 12265") as err:
            load_checkpoint(path)
        assert err.value.section == "params"

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_names_params_section(self, tmp_path, value):
        meta = good_meta()
        blob = ckpt_bytes(json.loads(TINY4.to_json()), meta, meta["param_count"] - 1)
        path = tmp_path / "nan.llck"
        path.write_bytes(blob + np.array([value], dtype="<f4").tobytes())
        with pytest.raises(FileFormatError, match="non-finite") as err:
            load_checkpoint(path)
        assert err.value.section == "params"

    def test_flipped_byte_loads_but_digest_mismatches(self, tmp_path):
        ckpt = make_ckpt()
        path = tmp_path / "a.llck"
        digest = save_checkpoint(ckpt, path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x01  # inside the parameter block
        path.write_bytes(bytes(blob))
        load_checkpoint(path)  # still structurally valid
        assert sha256_file(path) != digest


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        ds = generate(domain_spec("clipart_like"), "train", 30, 5)
        path = tmp_path / "d.llds"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.images, ds.images)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.provenance == ds.provenance

    def test_bytes_follow_the_container_layout(self, tmp_path):
        ds = generate(domain_spec("clipart_like"), "train", 30, 5)
        path = tmp_path / "d.llds"
        digest = save_dataset(ds, path)
        header = {"provenance": ds.provenance, "split": "train", "n": 30, "image_shape": [16, 16, 3]}
        header_json = json.dumps(header, sort_keys=True).encode()
        want = (
            b"LLDS" + struct.pack("<II", 1, len(header_json)) + header_json
            + ds.labels.astype("<u2").tobytes() + ds.images.astype("<f4").tobytes()
        )
        assert path.read_bytes() == want
        # recorded before both formats moved onto one container writer
        assert digest == "9e3262df310303f9c9d57dccf087fb0a1861a6a07f8e9d0f4abdefa54578fc3e"

    def test_hand_built_empty_dataset_loads(self, tmp_path):
        path = tmp_path / "ok.llds"
        write_header_only_dataset(path, GOOD_HEADER)
        assert len(load_dataset(path)) == 0

    @pytest.mark.parametrize(
        "header",
        [{k: v for k, v in GOOD_HEADER.items() if k != key} for key in GOOD_HEADER]
        + [{**GOOD_HEADER, **edit} for edit in ({"n": "many"}, {"n": -1}, {"image_shape": 16}, {"image_shape": [16, "x", 3]})],
        ids=[f"no_{key}" for key in GOOD_HEADER] + ["n_not_int", "negative_n", "shape_not_list", "shape_entry_not_int"],
    )
    def test_bad_header_names_header_section(self, tmp_path, header):
        path = tmp_path / "h.llds"
        write_header_only_dataset(path, header)
        with pytest.raises(FileFormatError) as err:
            load_dataset(path)
        assert err.value.section == "header"

    def test_trailing_bytes_name_images_section(self, tmp_path):
        path = tmp_path / "t.llds"
        write_one_image_dataset(path, np.zeros((16, 16, 3)))
        assert len(load_dataset(path)) == 1
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FileFormatError) as err:
            load_dataset(path)
        assert err.value.section == "images"

    @pytest.mark.parametrize("pixel", [np.nan, np.inf])
    def test_non_finite_image_names_images_section(self, tmp_path, pixel):
        image = np.zeros((16, 16, 3))
        image[3, 4, 1] = pixel
        path = tmp_path / "nan.llds"
        write_one_image_dataset(path, image)
        with pytest.raises(FileFormatError) as err:
            load_dataset(path)
        assert err.value.section == "images"

    @pytest.mark.parametrize("pixel", [np.nan, np.inf])
    def test_non_finite_pixel_refused_before_writing(self, tmp_path, pixel):
        ds = generate(domain_spec("source"), "train", 10, 5)
        ds.images[2, 3, 4, 1] = pixel
        path = tmp_path / "bad.llds"
        with pytest.raises(DomainError):
            save_dataset(ds, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "field,value", [("provenance", []), ("provenance", {"x": float("nan")}), ("split", 0)], ids=["provenance_list", "provenance_nan", "split_int"]
    )
    def test_header_the_loader_rejects_refused_before_writing(self, tmp_path, field, value):
        ds = generate(domain_spec("source"), "train", 10, 5)
        setattr(ds, field, value)
        path = tmp_path / "bad.llds"
        with pytest.raises(DomainError):
            save_dataset(ds, path)
        assert not path.exists()

    @pytest.mark.parametrize("label", [-1, 70000, 2.5])
    def test_label_outside_u16_refused_before_writing(self, tmp_path, label):
        ds = generate(domain_spec("source"), "train", 10, 5)
        ds.labels = ds.labels.astype(np.float64) if isinstance(label, float) else ds.labels.copy()
        ds.labels[1] = label
        path = tmp_path / "bad.llds"
        with pytest.raises(DomainError):
            save_dataset(ds, path)
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.llds"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FileFormatError):
            load_dataset(path)


OVERSIZED = {
    "llds_n_2_40": ("load_dataset", "labels", lambda: dataset_bytes({**GOOD_HEADER, "n": 2**40}, 0)),
    "llck_param_count_2_40": (
        "load_checkpoint", "params", lambda: ckpt_bytes(json.loads(TINY4.to_json()), {**good_meta(), "param_count": 2**40}),
    ),
    "llck_section_length_2_32_less_1": ("load_checkpoint", "arch", lambda: b"LLCK" + struct.pack("<II", 1, 2**32 - 1) + b"{}"),
}


@pytest.mark.parametrize("case", list(OVERSIZED))
def test_oversized_block_names_its_section_under_a_4_gb_address_space(tmp_path, case):
    """A count or section length read from a small file that declares more
    bytes than the file holds raises FileFormatError naming its section,
    in a child process limited to 4 GB of address space: reading such a
    block whole would first allocate it and raise MemoryError."""
    pytest.importorskip("resource")  # the address-space limit is POSIX
    load, section, make = OVERSIZED[case]
    path = tmp_path / "oversized"
    path.write_bytes(make())
    code = textwrap.dedent(
        f"""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, ({4 * 2**30}, {4 * 2**30}))
        sys.path.insert(0, {str(Path(basinscope.__file__).parents[1])!r})
        from basinscope import persistence
        try:
            persistence.{load}({str(path)!r})
        except Exception as e:
            print(type(e).__name__, getattr(e, "section", "-"))
        """
    )
    # one BLAS thread, so that numpy's import reserves little address space
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["FileFormatError", section]
