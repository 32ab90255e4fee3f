import json
import struct

import numpy as np
import pytest

from basinscope.dataops import domain_spec, generate
from basinscope.errors import DomainError, FileFormatError
from basinscope.model import TINY4, init_random
from basinscope.persistence import (
    cached_generate,
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

    def test_cache_hit_is_identical(self, tmp_path):
        spec = domain_spec("source")
        a = cached_generate(spec, "train", 20, 3, tmp_path)
        assert (tmp_path / "source-train-20-3.llds").exists()
        b = cached_generate(spec, "train", 20, 3, tmp_path)
        assert np.array_equal(a.images, b.images)

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
