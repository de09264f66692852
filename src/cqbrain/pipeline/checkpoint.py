"""Binary tensor container.

Layout, little-endian, no padding:
  magic "CQCK" | u32 version = 1 | u32 tensor count |
  per tensor: u16 name length, UTF-8 name, u8 ndim, ndim x u32 dims,
  prod(dims) x f32 values.
Nothing may follow the last tensor.

Tensors are written in sorted name order so identical contents always
produce identical bytes.
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from ..errors import BadFormat, BadMagic, InvalidArgument, Truncated
from .atomic import write_atomic

MAGIC = b"CQCK"
VERSION = 1


def serialize_tensors(tensors: dict[str, np.ndarray]) -> bytes:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<II", VERSION, len(tensors))
    for name in sorted(tensors):
        arr = np.asarray(tensors[name]).astype("<f4", copy=False)  # 0-d stays 0-d
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise InvalidArgument(f"tensor name too long ({len(encoded)} bytes)")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<I", dim)
        out += arr.tobytes()
    return bytes(out)


def deserialize_tensors(data: bytes) -> dict[str, np.ndarray]:
    if len(data) < 4 or data[:4] != MAGIC:
        raise BadMagic(f"expected {MAGIC!r} header")
    if len(data) < 12:
        raise Truncated("container shorter than its fixed header")
    version, count = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise BadFormat(f"version {version} unsupported (expected {VERSION})")
    pos = 12
    tensors: dict[str, np.ndarray] = {}

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise Truncated(f"needed {n} bytes at offset {pos}, file ends at {len(data)}")
        chunk = data[pos : pos + n]
        pos += n
        return chunk

    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadFormat(f"tensor name at offset {pos - name_len} is not UTF-8: {exc}") from exc
        if name in tensors:
            raise BadFormat(f"tensor {name!r} appears twice")
        (ndim,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim)) if ndim else ()
        n_values = math.prod(dims)  # Python ints: a huge product cannot wrap
        raw = take(4 * n_values)
        try:  # an empty tensor can still name dims whose nonzero product numpy cannot index
            arr = np.frombuffer(raw, dtype="<f4", count=n_values).reshape(dims)
        except ValueError as exc:
            raise BadFormat(f"tensor {name!r} dims {dims}: {exc}") from exc
        tensors[name] = arr.copy()  # writable, native layout
    if pos != len(data):
        raise BadFormat(f"{len(data) - pos} trailing bytes after the last tensor at offset {pos}")
    return tensors


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray]) -> bytes:
    data = serialize_tensors(tensors)
    write_atomic(path, data)
    return data


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    return deserialize_tensors(Path(path).read_bytes())
