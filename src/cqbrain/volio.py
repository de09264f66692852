"""3D volume I/O and 2D slice extraction.

Parses single-file NIfTI-1 volumes (float32 and int16 voxels, optional
intensity scaling), plans evenly spaced slice schedules per anatomical
plane, extracts min-max normalized 2D slices, resizes them bilinearly,
and reads/writes binary 8-bit PGM images. The two-file "ni1" form is not
read, and an image with a non-finite pixel is not written.

A parsed volume keeps its voxels as stored: a zero-copy view into the
payload bytes, which the volume therefore keeps alive. Conversion to
float32 and the `scl_slope`/`scl_inter` scaling happen per slice, on the
cross-section being cut, so slicing never holds a float32 copy of the
whole volume; `Volume3D.voxels` builds that whole field only on request.

Axis conventions: x is the sagittal axis, y the coronal axis, z the
axial axis. The axial plane is the xy cross-section swept along z, the
coronal plane the yz cross-section swept along x, and the sagittal
plane the zx cross-section swept along y. Within a slice the first
named axis is the image width, the second the height.
"""
from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadFormat, BadMagic, InvalidArgument, Truncated

MAGIC_SINGLE = b"n+1\x00"  # header and voxels in one file

DT_INT16 = 4
DT_FLOAT32 = 16
_BITPIX = {DT_INT16: 16, DT_FLOAT32: 32}
_NP_DTYPE = {DT_INT16: "i2", DT_FLOAT32: "f4"}


class Plane(enum.Enum):
    AXIAL = "axial"
    CORONAL = "coronal"
    SAGITTAL = "sagittal"


@dataclass(frozen=True)
class NiftiHeader:
    sizeof_hdr: int
    dim: tuple[int, ...]  # 8 entries, dim[0] = rank
    datatype: int
    bitpix: int
    vox_offset: float
    scl_slope: float
    scl_inter: float
    magic: bytes


@dataclass
class Volume3D:
    """Scalar voxel field over the stored voxels, flat in x-fastest order.

    `raw` is the stored array (for a parsed volume, a view into the payload
    bytes, which it keeps alive). A value is `raw` as float32, times
    `scl_slope` plus `scl_inter` when the slope is nonzero; `scaled` applies
    that to any part of `raw`, and `voxels` to all of it.
    """

    nx: int
    ny: int
    nz: int
    raw: np.ndarray
    scl_slope: float = 0.0
    scl_inter: float = 0.0

    def scaled(self, raw: np.ndarray) -> np.ndarray:
        """float32 values of `raw`, a part of this volume's stored voxels."""
        values = raw.astype(np.float32)
        if self.scl_slope != 0.0:
            values *= np.float32(self.scl_slope)
            values += np.float32(self.scl_inter)
        return values

    @property
    def voxels(self) -> np.ndarray:
        """The whole field as a new flat float32 array."""
        return self.scaled(self.raw)

    def grid(self) -> np.ndarray:
        """Stored voxels indexed as [z, y, x]."""
        return self.raw.reshape(self.nz, self.ny, self.nx)

    def plane_extent(self, plane: Plane) -> int:
        """Number of slices available in the given plane (Eq-1's m)."""
        return {Plane.AXIAL: self.nz, Plane.CORONAL: self.nx, Plane.SAGITTAL: self.ny}[plane]


@dataclass(frozen=True)
class SlicePlan:
    plane: Plane
    m: int
    n: int
    i: int
    k1: int
    k2: int
    n_slices: int

    @property
    def indices(self) -> list[int]:
        """Kept slice positions: the i-strided sequence minus k1 head / k2 tail."""
        return [(self.k1 + j) * self.i for j in range(self.n_slices)]


@dataclass
class Image2D:
    """Grayscale raster with pixel values in [0, 1], row-major (height, width)."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float32).reshape(self.height, self.width)


def parse_nifti(data: bytes) -> tuple[NiftiHeader, Volume3D]:
    """Decode a single-file NIfTI-1 payload into its header and voxel volume.

    The voxels sit at vox_offset (at least 352) inside `data`, and the
    volume's `raw` voxels are a view into those bytes.

    Raises BadMagic (a magic other than "n+1", including the two-file
    "ni1", or no NIfTI-1 header size), Truncated (a short header or
    raster, a negative vox_offset), or BadFormat (rank other than 3, a
    non-positive extent, an unsupported datatype or bitpix, a non-finite
    or non-integral vox_offset, a vox_offset inside the header, a
    non-finite scl_slope or scl_inter).
    """
    if len(data) < 348:
        raise Truncated(f"header needs 348 bytes, got {len(data)}")
    magic = data[344:348]
    if magic != MAGIC_SINGLE:
        raise BadMagic(f"unrecognized magic {magic!r}")
    if struct.unpack_from("<i", data, 0)[0] == 348:
        e = "<"
    elif struct.unpack_from(">i", data, 0)[0] == 348:
        e = ">"
    else:
        raise BadMagic("sizeof_hdr is not 348 in either byte order")

    dim = struct.unpack_from(e + "8h", data, 40)
    if dim[0] != 3:
        raise BadFormat(f"dim[0] = {dim[0]}, only rank-3 volumes supported")
    nx, ny, nz = dim[1], dim[2], dim[3]
    if min(nx, ny, nz) < 1:
        raise BadFormat(f"non-positive extent in dim[1..3] = {(nx, ny, nz)}")

    datatype, bitpix = struct.unpack_from(e + "2h", data, 70)
    if datatype not in _BITPIX:
        raise BadFormat(f"datatype code {datatype} not in {sorted(_BITPIX)}")
    if bitpix != _BITPIX[datatype]:
        raise BadFormat(f"bitpix {bitpix} inconsistent with datatype {datatype}")
    vox_offset, scl_slope, scl_inter = struct.unpack_from(e + "3f", data, 108)
    if not math.isfinite(scl_slope) or not math.isfinite(scl_inter):
        raise BadFormat(f"non-finite intensity scaling scl_slope = {scl_slope}, scl_inter = {scl_inter}")
    if not math.isfinite(vox_offset) or vox_offset != int(vox_offset):
        raise BadFormat(f"vox_offset {vox_offset} is not a whole byte count")
    offset = int(vox_offset)
    if offset < 0:
        raise Truncated(f"negative vox_offset {offset}")

    header = NiftiHeader(348, dim, datatype, bitpix, vox_offset, scl_slope, scl_inter, magic)

    if offset < 352:
        raise BadFormat(f"vox_offset {offset} lies inside the 352-byte single-file header")
    count = nx * ny * nz
    need = offset + count * bitpix // 8
    if len(data) < need:
        raise Truncated(f"voxel raster needs {need} bytes, got {len(data)}")

    raw = np.frombuffer(data, dtype=e + _NP_DTYPE[datatype], count=count, offset=offset)
    return header, Volume3D(nx, ny, nz, raw, scl_slope, scl_inter)


def compute_interval(m: int, n: int) -> int:
    """Slice spacing floor(m / n) for extracting n of m slices."""
    if n == 0 or n > m:
        raise InvalidArgument(f"cannot take n={n} slices from m={m}")
    return m // n


def plan_slices(plane: Plane, m: int, n: int, k1: int, k2: int) -> SlicePlan:
    """Extraction schedule: stride i = floor(m/n), keep ceil(m/i) - (k1+k2) slices."""
    if k1 < 0 or k2 < 0:
        raise InvalidArgument(f"exclusions must be non-negative, got k1={k1}, k2={k2}")
    i = compute_interval(m, n)
    total = math.ceil(m / i)
    n_slices = total - (k1 + k2)
    if n_slices < 1:
        raise InvalidArgument(f"ceil({m}/{i}) = {total} slices, all excluded by k1+k2 = {k1 + k2}")
    return SlicePlan(plane, m, n, i, k1, k2, n_slices)


def extract_slice(vol: Volume3D, plane: Plane, index: int) -> Image2D:
    """Fixed-index cross-section, min-max normalized to [0, 1].

    Only this cross-section of the stored voxels is converted and scaled.
    Constant slices come back all-zero. Pixel layout follows the module
    convention (axial rows = y, cols = x; coronal rows = z, cols = y;
    sagittal rows = x, cols = z). A cross-section holding a NaN or an
    infinity after scaling (a stored one, or an int16 voxel times
    scl_slope beyond float32's range) raises BadFormat: no normalization
    maps it to pixels.
    """
    extent = vol.plane_extent(plane)
    if not 0 <= index < extent:
        raise InvalidArgument(f"{plane.value} index {index} outside [0, {extent - 1}]")
    g = vol.grid()
    if plane is Plane.AXIAL:
        raw = g[index]  # (y, x)
    elif plane is Plane.CORONAL:
        raw = g[:, :, index]  # (z, y)
    else:
        raw = g[:, index, :].T  # (x, z)
    with np.errstate(over="ignore"):  # an overflowing scl_slope is reported below
        arr = vol.scaled(raw)
    if not np.isfinite(arr).all():
        raise BadFormat(f"{plane.value} slice {index} holds non-finite values after scaling")
    lo = float(arr.min())
    hi = float(arr.max())
    if hi > lo:
        arr = (arr - lo) / (hi - lo)
    else:
        arr = np.zeros_like(arr)
    return Image2D(width=arr.shape[1], height=arr.shape[0], pixels=arr)


def resize_bilinear(img: Image2D, w: int, h: int) -> Image2D:
    """Corner-aligned bilinear resample, clamped to [0, 1]."""
    if w < 1 or h < 1:
        raise InvalidArgument(f"target size must be positive, got {w}x{h}")
    src = img.pixels.astype(np.float64)

    def _coords(out_n: int, src_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if out_n == 1 or src_n == 1:
            pos = np.zeros(out_n)
        else:
            pos = np.arange(out_n) * ((src_n - 1) / (out_n - 1))
        lo = np.minimum(np.floor(pos).astype(int), src_n - 1)
        hi = np.minimum(lo + 1, src_n - 1)
        return lo, hi, pos - lo

    x0, x1, fx = _coords(w, img.width)
    y0, y1, fy = _coords(h, img.height)
    top = src[y0][:, x0] * (1 - fx) + src[y0][:, x1] * fx
    bot = src[y1][:, x0] * (1 - fx) + src[y1][:, x1] * fx
    out = top * (1 - fy)[:, None] + bot * fy[:, None]
    return Image2D(width=w, height=h, pixels=np.clip(out, 0.0, 1.0))


def fit(img: Image2D, w: int, h: int) -> Image2D:
    """`img` itself when it is already w x h, else `resize_bilinear(img, w, h)`."""
    if (img.width, img.height) == (w, h):
        return img
    return resize_bilinear(img, w, h)


def write_pgm(img: Image2D) -> bytes:
    """Binary PGM (P5, maxval 255); pixel byte = round(p * 255), clipped to [0, 255].

    A non-finite pixel raises InvalidArgument: no byte stands for it.
    """
    if not np.isfinite(img.pixels).all():
        raise InvalidArgument(f"{img.width}x{img.height} image has non-finite pixels")
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    quantized = np.floor(img.pixels * 255.0 + 0.5).clip(0, 255).astype(np.uint8)
    return header + quantized.tobytes()


def read_pgm(data: bytes) -> Image2D:
    """Inverse of write_pgm; accepts whitespace and '#' comments in the header, no bytes after the raster."""
    pos = 0

    def _token() -> bytes:
        nonlocal pos
        while pos < len(data):
            c = data[pos : pos + 1]
            if c == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise BadFormat("unexpected end of PGM header")
        return data[start:pos]

    def _number() -> int:
        token = _token()
        if not token.isdigit() or len(token) > 20:  # bytes.isdigit: ASCII digits only, unlike int()
            raise BadFormat(f"PGM header field {token[:24]!r} is not 1 to 20 decimal digits")
        return int(token)

    if _token() != b"P5":
        raise BadFormat("magic is not P5")
    w, h, maxval = _number(), _number(), _number()
    if w < 1 or h < 1:
        raise BadFormat(f"dimensions must be positive, got {w}x{h}")
    if maxval != 255:
        raise BadFormat(f"maxval must be 255, got {maxval}")
    pos += 1  # single whitespace byte separates header from raster
    raster = data[pos : pos + w * h]
    if len(raster) < w * h:
        raise BadFormat(f"raster needs {w * h} bytes, got {len(raster)}")
    if len(data) > pos + w * h:
        raise BadFormat(f"{len(data) - pos - w * h} bytes after the {w}x{h} raster")
    pixels = np.frombuffer(raster, dtype=np.uint8).astype(np.float32) / np.float32(255.0)
    return Image2D(width=w, height=h, pixels=pixels.reshape(h, w))
