"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and writes its files with its own
PGM and NIfTI-1 writers, so the inputs never depend on the package under
test. The image models follow the test suite's synthetic corpora: Gaussian
blobs in opposite corners for the two classes, annulus head phantoms with
brain masks, and an ellipsoid head phantom for the 3D volumes.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np


def pgm_bytes(pixels: np.ndarray) -> bytes:
    """Binary 8-bit PGM of a [0, 1] raster."""
    h, w = pixels.shape
    quantized = np.floor(np.clip(pixels, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    return f"P5\n{w} {h}\n255\n".encode("ascii") + quantized.tobytes()


def blob_image(rng: np.random.Generator, size: int, label: int) -> np.ndarray:
    """Class 0: blob in the upper-left region; class 1: lower-right."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    lo, hi = (0.2, 0.4) if label == 0 else (0.6, 0.8)
    cy, cx = size * rng.uniform(lo, hi), size * rng.uniform(lo, hi)
    r = size * rng.uniform(0.15, 0.25)
    img = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * r * r))) * rng.uniform(0.7, 1.0)
    img += rng.normal(0.0, 0.05, (size, size))
    return np.clip(img, 0.0, 1.0)


def write_blob_tree(root: Path, per_class: int, size: int, seed: int) -> None:
    """`root/<class>/axial/*.pgm` for the classes `neg` (label 0) and `pos` (label 1)."""
    rng = np.random.default_rng([seed, 1])
    for cls, label in (("neg", 0), ("pos", 1)):
        out = root / cls / "axial"
        out.mkdir(parents=True, exist_ok=True)
        for i in range(per_class):
            (out / f"{cls}_{i:03d}.pgm").write_bytes(pgm_bytes(blob_image(rng, size, label)))


def annulus_pair(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Fake head slice: bright ring (skull) around a textured disk (brain), plus its mask."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    cy = size / 2 + rng.uniform(-size * 0.08, size * 0.08)
    cx = size / 2 + rng.uniform(-size * 0.08, size * 0.08)
    r_brain = size * rng.uniform(0.22, 0.30)
    ring_w = size * rng.uniform(0.04, 0.08)
    dist = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    brain = np.clip(1.0 - dist / r_brain, 0.0, 1.0) * rng.uniform(0.35, 0.55)
    brain += (dist <= r_brain) * rng.normal(0.0, 0.03, (size, size))
    ring = np.exp(-((dist - (r_brain + ring_w)) ** 2) / (2.0 * (ring_w / 2) ** 2)) * rng.uniform(0.75, 0.95)
    img = np.clip(brain + ring + rng.normal(0.0, 0.02, (size, size)), 0.0, 1.0)
    return img, (dist <= r_brain).astype(np.float64)


def write_annulus_set(images: Path, masks: Path | None, n: int, size: int, seed: int,
                      stream: int) -> None:
    """n annulus images (and masks with the same file names when `masks` is given)."""
    rng = np.random.default_rng([seed, stream])
    images.mkdir(parents=True, exist_ok=True)
    if masks is not None:
        masks.mkdir(parents=True, exist_ok=True)
    for i in range(n):
        img, mask = annulus_pair(rng, size)
        (images / f"head_{i:03d}.pgm").write_bytes(pgm_bytes(img))
        if masks is not None:
            (masks / f"head_{i:03d}.pgm").write_bytes(pgm_bytes(mask))


def nifti_header(dims: tuple[int, int, int]) -> bytes:
    """352-byte single-file NIfTI-1 header for int16 voxels (datatype 4)."""
    hdr = bytearray(352)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    struct.pack_into("<2h", hdr, 70, 4, 16)
    struct.pack_into("<f", hdr, 108, 352.0)
    hdr[344:348] = b"n+1\x00"
    return bytes(hdr)


def write_head_volume(path: Path, dims: tuple[int, int, int], rng: np.random.Generator) -> None:
    """Ellipsoid head phantom: bright skull shell around a darker textured brain.

    Built one slab of z at a time so generating a volume never holds more
    than the int16 raster plus one float slab.
    """
    nx, ny, nz = dims
    centre = np.array([nx, ny, nz]) / 2 + rng.uniform(-0.05, 0.05, 3) * np.array(dims)
    radii = np.array(dims) * rng.uniform(0.36, 0.44, 3)
    brain_level = rng.uniform(600.0, 900.0)
    skull_level = rng.uniform(1500.0, 2000.0)
    raster = np.empty((nz, ny, nx), dtype="<i2")
    yy, xx = np.mgrid[0:ny, 0:nx].astype(np.float32)
    slab = 16
    for z0 in range(0, nz, slab):
        zz = np.arange(z0, min(z0 + slab, nz), dtype=np.float32)[:, None, None]
        r = np.sqrt(((xx - centre[0]) / radii[0]) ** 2 + ((yy - centre[1]) / radii[1]) ** 2
                    + ((zz - centre[2]) / radii[2]) ** 2)
        vals = np.where(r < 0.88, brain_level * (1.1 - 0.4 * r), 0.0)
        vals += np.where((r >= 0.88) & (r < 1.0), skull_level, 0.0)
        vals += rng.standard_normal(vals.shape, dtype=np.float32) * 40.0
        raster[z0 : z0 + len(zz)] = np.clip(vals, 0, 32767)
    with open(path, "wb") as fh:
        fh.write(nifti_header(dims))
        raster.tofile(fh)


def write_volume_classes(root: Path, counts: dict[str, int], dims: tuple[int, int, int],
                         seed: int) -> None:
    """`root/<class>/vol_<i>.nii` with counts[class] volumes per class."""
    rng = np.random.default_rng([seed, 3])
    for cls in sorted(counts):
        out = root / cls
        out.mkdir(parents=True, exist_ok=True)
        for i in range(counts[cls]):
            write_head_volume(out / f"vol_{i}.nii", dims, rng)
