import json
import struct

import numpy as np
import pytest

from basinscope.dataops import domain_spec, generate
from basinscope.errors import DomainError, FileFormatError
from basinscope.model import TINY4, init_random
from basinscope.persistence import (
    emit_table,
    format_real,
    load_checkpoint,
    load_dataset,
    make_manifest,
    save_checkpoint,
    save_dataset,
    sha256_file,
    verify_manifest,
    write_json,
    write_manifest,
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
            {"input_shape": [12, 12, 3]},
            {"conv_blocks": [[8, 4, 1]]},
            {"conv_blocks": [[8, 33, 1]]},
            {"num_classes": 1},
        ],
        ids=["two_entry_shape", "non_power_of_two", "even_kernel", "kernel_too_large", "one_class"],
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

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.llds"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FileFormatError):
            load_dataset(path)


class TestEmitTable:
    SCHEMA = (("name", "str"), ("epoch", "int"), ("value", "real"))

    def test_basic_format(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_table([("run,1", 3, 0.123456789123)], self.SCHEMA, path)
        text = path.read_text()
        assert text == 'name,epoch,value\n"run,1",3,0.123456789\n'

    def test_nine_significant_digits(self):
        assert format_real(0.123456789123) == "0.123456789"
        assert format_real(2.0) == "2"
        assert format_real(1234567891.23) == "1.23456789e+09"

    def test_header_only_for_empty_rows(self, tmp_path):
        path = tmp_path / "e.csv"
        emit_table([], self.SCHEMA, path)
        assert path.read_text() == "name,epoch,value\n"

    def test_deterministic_digest(self, tmp_path):
        rows = [("a", 1, 0.5), ("b", 2, 1.5)]
        d1 = emit_table(rows, self.SCHEMA, tmp_path / "1.csv")
        d2 = emit_table(rows, self.SCHEMA, tmp_path / "2.csv")
        assert d1 == d2

    def test_schema_violations(self, tmp_path):
        with pytest.raises(DomainError):
            emit_table([("a", 1)], self.SCHEMA, tmp_path / "x.csv")
        with pytest.raises(DomainError):
            emit_table([("a", 1.5, 0.5)], self.SCHEMA, tmp_path / "x.csv")
        with pytest.raises(DomainError):
            emit_table([("a", 1, "nope")], self.SCHEMA, tmp_path / "x.csv")


class TestManifest:
    def test_verify_clean_and_detect_tamper(self, tmp_path):
        ckpt_path = tmp_path / "a.llck"
        save_checkpoint(make_ckpt(), ckpt_path)
        out_csv = tmp_path / "out.csv"
        emit_table([("a", 1, 0.5)], TestEmitTable.SCHEMA, out_csv)
        manifest = make_manifest(
            run_id="run1",
            command="test",
            config={"k": 1},
            inputs={"ckpt": ckpt_path},
            outputs=[out_csv],
            seed=1,
        )
        mpath = write_manifest(manifest, tmp_path)
        assert mpath.name == "run1.manifest.json"
        assert verify_manifest(mpath) == []
        out_csv.write_text("tampered\n")
        problems = verify_manifest(mpath)
        assert len(problems) == 1 and "mismatch" in problems[0]

    def test_write_json_deterministic(self, tmp_path):
        d1 = write_json({"b": 1, "a": [1.5, 2.5]}, tmp_path / "x.json")
        d2 = write_json({"a": [1.5, 2.5], "b": 1}, tmp_path / "y.json")
        assert d1 == d2
        assert json.loads((tmp_path / "x.json").read_text()) == {"a": [1.5, 2.5], "b": 1}
