"""Binary checkpoint format: round trips, determinism, corruption handling."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from sectsum.autodiff import Tensor
from sectsum.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)


def _params(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "alpha.weight": Tensor(rng.standard_normal((3, 4))),
        "alpha.bias": Tensor(rng.standard_normal(3)),
        "beta": Tensor(rng.standard_normal((2, 2, 2))),
        "scalarish": Tensor(rng.standard_normal(1)),
    }


def test_round_trip_is_bit_exact(tmp_path):
    params = _params()
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path, seed=7, config_hash="abc123")
    loaded, header = load_checkpoint(path)
    assert sorted(loaded) == sorted(params)
    for name, tensor in params.items():
        assert loaded[name].dtype == np.float64
        assert loaded[name].shape == tensor.data.shape
        assert (loaded[name] == tensor.data).all()
    assert header == {"format_version": FORMAT_VERSION, "seed": 7, "config_hash": "abc123"}


def test_file_bytes_independent_of_insertion_order(tmp_path):
    params = _params()
    shuffled = dict(reversed(list(params.items())))
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(params, a, seed=1, config_hash="h")
    save_checkpoint(shuffled, b, seed=1, config_hash="h")
    assert a.read_bytes() == b.read_bytes()


def test_expected_hash_accepts_match_and_rejects_mismatch(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(_params(), path, seed=0, config_hash="righthash")
    load_checkpoint(path, expected_hash="righthash")
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path, expected_hash="wronghash")
    assert "righthash" in str(err.value) and "wronghash" in str(err.value)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_unsupported_version_names_both(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint({}, path, seed=0, config_hash="h")
    data = bytearray(path.read_bytes())
    # bump format_version inside the JSON header
    text = data.decode("latin-1").replace('"format_version": 1', '"format_version": 9')
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert "9" in str(err.value) and str(FORMAT_VERSION) in str(err.value)


def test_truncated_file_reports_offset(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(_params(), path, seed=0, config_hash="h")
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) - 5])
    with pytest.raises(CheckpointError, match="truncated.*offset"):
        load_checkpoint(path)


def test_garbled_header_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    payload = b"{broken json"
    path.write_bytes(MAGIC + struct.pack("<I", len(payload)) + payload)
    with pytest.raises(CheckpointError, match="unreadable header"):
        load_checkpoint(path)


@pytest.mark.parametrize("payload", [b"[]", b"7", b'"x"'])
def test_header_that_is_not_an_object_rejected(tmp_path, payload):
    path = tmp_path / "model.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", len(payload)) + payload)
    with pytest.raises(CheckpointError, match=r"unreadable header \(not a JSON object\)"):
        load_checkpoint(path)


def test_empty_params_round_trip(tmp_path):
    path = tmp_path / "empty.ckpt"
    save_checkpoint({}, path, seed=3, config_hash="h")
    loaded, header = load_checkpoint(path)
    assert loaded == {}
    assert header["seed"] == 3



def _with_records(path, *records: bytes) -> list[int]:
    """Write a header-only checkpoint plus raw records; return each record's byte offset."""
    save_checkpoint({}, path, seed=0, config_hash="h")
    data = path.read_bytes()
    offsets = []
    for rec in records:
        offsets.append(len(data))
        data += rec
    path.write_bytes(data)
    return offsets


def _record(name: bytes, values) -> bytes:
    data = np.asarray(values, dtype="<f8")
    return struct.pack("<H", len(name)) + name + struct.pack("<BI", 1, data.size) + data.tobytes()


def test_duplicate_record_name_reports_offset(tmp_path):
    path = tmp_path / "model.ckpt"
    _, second = _with_records(path, _record(b"w", [1.0, 2.0]), _record(b"w", [3.0, 4.0]))
    with pytest.raises(CheckpointError, match=f"duplicate name 'w' in record at byte offset {second}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_reports_offset(tmp_path, bad):
    path = tmp_path / "model.ckpt"
    _, second = _with_records(path, _record(b"a", [1.0]), _record(b"b", [0.5, bad]))
    with pytest.raises(CheckpointError, match=f"non-finite value in 'b', record at byte offset {second}$"):
        load_checkpoint(path)


def test_non_utf8_name_reports_offset(tmp_path):
    path = tmp_path / "model.ckpt"
    (first,) = _with_records(path, _record(b"\xffw", [1.0]))
    with pytest.raises(CheckpointError, match=f"name is not UTF-8 in record at byte offset {first}$"):
        load_checkpoint(path)


def _claim(name: bytes, shape: tuple[int, ...], payload: bytes) -> bytes:
    """A record whose dims claim `shape`, whatever the payload holds."""
    return struct.pack("<H", len(name)) + name + struct.pack(f"<B{len(shape)}I", len(shape), *shape) + payload


@pytest.mark.parametrize("shape", [(2**31, 4), (2**32 - 1, 2**32 - 1)], ids=["2^36 bytes", "2^67 bytes"])
def test_oversized_record_claim_is_reported_as_truncated_data(tmp_path, shape):
    # the claim is checked against the bytes left in the file before anything is read
    path = tmp_path / "model.ckpt"
    (first,) = _with_records(path, _claim(b"w", shape, b"\0" * 16))
    data_at = first + 2 + 1 + 1 + 4 * len(shape)
    wanted = 8 * math.prod(shape)
    message = rf"truncated data of w at byte offset {data_at} \(wanted {wanted} bytes, got 16\)"
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_oversized_header_length_is_reported_as_truncated_header(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", 0xFFFFFFF0) + b"{}")
    message = r"truncated header at byte offset 12 \(wanted 4294967280 bytes, got 2\)"
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_rank_numpy_cannot_hold_reports_offset(tmp_path):
    path = tmp_path / "model.ckpt"
    (first,) = _with_records(path, _claim(b"w", (0,) * 70, b""))
    message = f"rank 70 of 'w' is not supported, record at byte offset {first}$"
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)
