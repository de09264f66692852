"""Hand-rolled binary fixtures, built independently of the package readers."""
from __future__ import annotations

import struct

import numpy as np


def nifti_bytes(
    dims: tuple[int, int, int],
    voxels: np.ndarray,
    datatype: int = 16,
    scl_slope: float = 0.0,
    scl_inter: float = 0.0,
    magic: bytes = b"n+1\x00",
    rank: int = 3,
    vox_offset: float = 352.0,
    bitpix: int | None = None,
    big_endian: bool = False,
) -> bytes:
    """Assemble a NIfTI-1 payload field by field at the standard offsets.

    Deliberately does not share any code with the parser under test: each
    field is packed at its documented offset into a zeroed 348-byte header.
    """
    e = ">" if big_endian else "<"
    hdr = bytearray(348)
    struct.pack_into(e + "i", hdr, 0, 348)
    dim = [rank, dims[0], dims[1], dims[2], 1, 1, 1, 1]
    struct.pack_into(e + "8h", hdr, 40, *dim)
    if bitpix is None:
        bitpix = {4: 16, 16: 32}.get(datatype, 32)
    struct.pack_into(e + "h", hdr, 70, datatype)
    struct.pack_into(e + "h", hdr, 72, bitpix)
    struct.pack_into(e + "f", hdr, 108, vox_offset)
    struct.pack_into(e + "f", hdr, 112, scl_slope)
    struct.pack_into(e + "f", hdr, 116, scl_inter)
    hdr[344:348] = magic

    np_dtype = {4: e + "i2", 16: e + "f4"}.get(datatype, e + "f4")
    raster = np.asarray(voxels).astype(np_dtype).tobytes()
    pad = b"\x00" * (int(vox_offset) - 348)
    return bytes(hdr) + pad + raster


def volume_from_coordinate(n: int, axis: str) -> np.ndarray:
    """n^3 voxel block, x-fastest flat order, value = chosen coordinate."""
    z, y, x = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    sel = {"x": x, "y": y, "z": z}[axis]
    return sel.reshape(-1).astype(np.float64)
