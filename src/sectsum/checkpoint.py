"""Versioned binary checkpoints of named float64 parameter tensors.

Layout: 8-byte magic, uint32 header length, JSON header
{format_version, seed, config_hash}, then records sorted by name —
uint16 name length, UTF-8 name, uint8 ndim, uint32 dims, raw little-endian
float64 data.  Sorting makes the byte stream independent of construction
order, so identical parameters always produce identical files.  The loader
refuses a record whose name is not UTF-8 or repeats an earlier name, whose
rank NumPy cannot hold, or whose data holds a non-finite value, naming the
record's byte offset; a length claimed past the end of the file is reported
as truncation before anything is read.
"""

from __future__ import annotations

import io
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

from .autodiff import Tensor

MAGIC = b"SECTSUM1"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(params: dict[str, Tensor], path: str | Path, *, seed: int, config_hash: str) -> None:
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "seed": int(seed), "config_hash": config_hash},
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for name in sorted(params):
            data = np.ascontiguousarray(params[name].data, dtype="<f8")
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(data.tobytes())


def _read_exact(fh: io.BytesIO, size: int, what: str) -> bytes:
    """Read `size` bytes: a BytesIO returns at most what it has left, so a
    claim past the end allocates nothing (it takes counts up to sys.maxsize)."""
    offset = fh.tell()
    buf = fh.read(min(size, sys.maxsize))
    if len(buf) != size:
        raise CheckpointError(
            f"corrupt checkpoint: truncated {what} at byte offset {offset} "
            f"(wanted {size} bytes, got {len(buf)})"
        )
    return buf


def load_checkpoint(path: str | Path, *, expected_hash: str | None = None) -> tuple[dict[str, np.ndarray], dict]:
    """Read all parameter tensors plus the header, verifying version and hash."""
    # read once and parsed from memory: a read and an fstat per field cost more than the file
    with io.BytesIO(Path(path).read_bytes()) as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
        try:
            header = json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise CheckpointError(f"{path}: unreadable header ({e})") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: unreadable header (not a JSON object)")
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version} not supported (this build reads version {FORMAT_VERSION})"
            )
        if expected_hash is not None and header.get("config_hash") != expected_hash:
            raise CheckpointError(
                f"{path}: config hash mismatch\n"
                f"  checkpoint: {header.get('config_hash')}\n"
                f"  invocation: {expected_hash}"
            )
        params: dict[str, np.ndarray] = {}
        while True:
            pos = fh.tell()
            head = fh.read(2)
            if not head:
                break
            if len(head) != 2:
                raise CheckpointError(f"corrupt checkpoint: truncated record header at byte offset {pos}")
            (name_len,) = struct.unpack("<H", head)
            try:
                name = _read_exact(fh, name_len, "parameter name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(
                    f"corrupt checkpoint: name is not UTF-8 in record at byte offset {pos}"
                ) from None
            if name in params:
                raise CheckpointError(
                    f"corrupt checkpoint: duplicate name {name!r} in record at byte offset {pos}"
                )
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, f"rank of {name}"))
            shape = tuple(
                struct.unpack("<I", _read_exact(fh, 4, f"shape of {name}"))[0] for _ in range(ndim)
            )
            raw = _read_exact(fh, math.prod(shape) * 8, f"data of {name}")
            try:
                params[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
            except ValueError:  # more dimensions than NumPy supports
                raise CheckpointError(
                    f"corrupt checkpoint: rank {ndim} of {name!r} is not supported, "
                    f"record at byte offset {pos}"
                ) from None
            if not np.isfinite(params[name]).all():
                raise CheckpointError(
                    f"corrupt checkpoint: non-finite value in {name!r}, record at byte offset {pos}"
                )
    return params, header
