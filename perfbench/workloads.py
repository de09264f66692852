"""The three benchmark workloads: inputs, CLI command sequences, output checks, metrics.

A workload is one closed-loop client: a single process that issues its CLI
commands one after another through `cqbrain.pipeline.cli.main`, each with
`timing = zero` so every output file is a pure function of the inputs. One
pass over a workload's command list is a round. Paths in the configs are
relative to the workload's work directory, so the bytes of every output
(including manifests, which record input paths) repeat across rounds, runs
and checkouts.

Why each workload exists, and the layers it exercises:

- classify: the paper's experiment grid (train the quantum head at 2 and 3
  qubits and the classical head, evaluate each on the training split, then
  report) on 128 px two-class slices.
  Its time goes to `qsim` and to per-sample, small-channel valid
  convolutions in `cqcnn`. It never touches `skullnet` or `diffusion`.
- segment: U-Net skull stripping on 64 px annulus phantoms at 1/8 width
  (acceptance criterion 09's configuration). Its convolutions are batched,
  same-padded and wide, with transposed convolutions; training runs forward
  and backward at batch 8, apply runs forward only at batch 1. It never
  reaches `qsim`, `cqcnn` or `diffusion`.
- synthesize: three-plane NIfTI slicing of 256x256x176 int16 volumes, brief
  denoiser training on the minority class's axial slices, and a balanced
  axial dataset build whose minority class is topped up
  by ancestral sampling (T = 200). It alone uses `volio` parsing and
  resizing, the `diffusion` sampling loop and Gaussian `rng` draws. It
  never reaches `qsim` or `cqcnn`.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs


class CheckFailed(Exception):
    """An output exists but does not parse or holds a non-finite or wrong value."""


@dataclass
class Command:
    tag: str                     # unique within a round, e.g. "train.q2"
    cli: str                     # CLI subcommand
    config: dict[str, object]
    check: Callable[[Path], None]

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.config.items())


@dataclass
class Workload:
    name: str
    generate: Callable[[Path, int], None]          # (inputs dir, seed)
    commands: list[Command]
    metrics: Callable[[dict[str, float]], dict[str, float]]  # command wall times -> metrics
    setup_probe: list[str]                         # setup_probe.py steps for setup_s


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _finite_csv(path: Path, columns: tuple[str, ...], rows: int) -> list[dict]:
    from cqbrain.pipeline.report import read_csv

    table = read_csv(path)
    _require(len(table) == rows, f"{path}: {len(table)} rows, expected {rows}")
    for row in table:
        for col in columns:
            _require(math.isfinite(float(row[col])), f"{path}: non-finite {col} {row[col]!r}")
    return table


def _finite_checkpoint(path: Path, unpack: str) -> None:
    from cqbrain.pipeline import modelio
    from cqbrain.pipeline.checkpoint import load_checkpoint

    tensors = load_checkpoint(path)
    for name, arr in tensors.items():
        _require(bool(np.isfinite(arr).all()), f"{path}: tensor {name} not finite")
    getattr(modelio, unpack)(tensors)


def _pgm_dir(path: Path, count: int, size: int) -> list[np.ndarray]:
    from cqbrain.volio import read_pgm

    files = sorted(path.glob("*.pgm"))
    _require(len(files) == count, f"{path}: {len(files)} PGMs, expected {count}")
    out = []
    for f in files:
        img = read_pgm(f.read_bytes())
        _require((img.width, img.height) == (size, size), f"{f}: {img.width}x{img.height}")
        out.append(img.pixels)
    return out


def _manifest(path: Path, counts: dict[str, dict[str, int]], synthetic: int) -> None:
    from cqbrain.pipeline.dataset import SYNTHETIC, DatasetManifest

    manifest = DatasetManifest.load(path)
    _require(manifest.counts() == counts, f"{path}: split counts {manifest.counts()}, expected {counts}")
    synth = [e for c in manifest.classes.values() for e in c["train"] if e.provenance == SYNTHETIC]
    _require(len(synth) == synthetic, f"{path}: {len(synth)} synthetic files, expected {synthetic}")


def output_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under out_dir, keyed by its path relative to out_dir."""
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


# -- classify --------------------------------------------------------------

CLS_SIZE = 128
CLS_PER_CLASS = 60
CLS_EPOCHS = 1
CLS_TRAIN = 2 * int(0.9 * CLS_PER_CLASS)
CLS_TEST = 2 * CLS_PER_CLASS - CLS_TRAIN
CLS_HEADS = {"q2": ("quantum", 2), "q3": ("quantum", 3), "classical": ("classical", 2)}


def _check_train(tag: str) -> Callable[[Path], None]:
    def check(work: Path) -> None:
        run = work / "out" / f"run_{tag}"
        _finite_csv(run / "curves.csv", ("loss", "accuracy", "f1"), 2 * CLS_EPOCHS)
        _finite_checkpoint(run / "checkpoint.cqck", "unpack_cqcnn")
        json.loads((run / "run.json").read_text(encoding="utf-8"))
    return check


def _classify() -> Workload:
    per_split = {"train": CLS_TRAIN // 2, "test": CLS_TEST // 2}
    commands = [Command("build-dataset", "build-dataset", {
        "input_dir": "inputs/tree", "output_dir": "out/dataset", "plane": "axial",
        "balance": "false", "size": CLS_SIZE, "seed": 0,
    }, lambda w: _manifest(w / "out/dataset/manifest.json", {"neg": per_split, "pos": per_split}, 0))]
    for tag, (head, qubits) in CLS_HEADS.items():
        commands.append(Command(f"train.{tag}", "train", {
            "dataset": "out/dataset/manifest.json", "output_dir": f"out/run_{tag}", "run": tag,
            "head": head, "qubits": qubits, "epochs": CLS_EPOCHS, "seed": 0, "timing": "zero",
        }, _check_train(tag)))
    for tag in CLS_HEADS:
        commands.append(Command(f"evaluate.{tag}", "evaluate", {
            "checkpoint": f"out/run_{tag}/checkpoint.cqck", "dataset": "out/dataset/manifest.json",
            "output": f"out/eval_{tag}.csv", "split": "train",
        }, lambda w, tag=tag: _finite_csv(w / f"out/eval_{tag}.csv", ("loss", "accuracy"), 1)))
    commands.append(Command("report", "report", {
        "runs": ",".join(f"out/run_{tag}" for tag in CLS_HEADS), "output": "out/summary.csv",
    }, lambda w: _finite_csv(w / "out/summary.csv", ("f1_mean", "accuracy_mean"), len(CLS_HEADS))))

    def metrics(wall: dict[str, float]) -> dict[str, float]:
        per_head = {f"train_img_per_s.{tag}": CLS_EPOCHS * CLS_TRAIN / wall[f"train.{tag}"]
                    for tag in CLS_HEADS}
        train_s = sum(wall[f"train.{tag}"] for tag in CLS_HEADS)
        evals = len(CLS_HEADS) * CLS_TRAIN / sum(wall[f"evaluate.{tag}"] for tag in CLS_HEADS)
        return {**per_head, "eval_img_per_s": evals,
                "train_img_per_s": len(CLS_HEADS) * CLS_EPOCHS * CLS_TRAIN / train_s,
                "infer_img_per_s": evals}

    return Workload(
        "classify",
        lambda root, seed: inputs.write_blob_tree(root / "tree", CLS_PER_CLASS, CLS_SIZE, seed),
        commands, metrics,
        ["manifest:out/dataset/manifest.json", "checkpoint:out/run_q2/checkpoint.cqck:unpack_cqcnn"],
    )


# -- segment ---------------------------------------------------------------

SEG_SIZE = 64
SEG_TRAIN = 48
SEG_APPLY = 160
SEG_EPOCHS = 3


def _check_segment_train(work: Path) -> None:
    _finite_csv(work / "out/seg/curves.csv", ("loss", "dice", "iou"), SEG_EPOCHS)
    _finite_checkpoint(work / "out/seg/checkpoint.cqck", "unpack_unet")


def _check_segment_apply(work: Path) -> None:
    masks = _pgm_dir(work / "out/apply/masks", SEG_APPLY, SEG_SIZE)
    _pgm_dir(work / "out/apply/stripped", SEG_APPLY, SEG_SIZE)
    for m in masks:
        _require(bool(np.isin(m, (0.0, 1.0)).all()), "segment-apply mask is not binary")


def _segment() -> Workload:
    commands = [
        Command("segment-train", "segment-train", {
            "images_dir": "inputs/seg/images", "masks_dir": "inputs/seg/masks",
            "output_dir": "out/seg", "size": SEG_SIZE, "width_scale": 0.125,
            "epochs": SEG_EPOCHS, "batch_size": 8, "seed": 0, "timing": "zero",
        }, _check_segment_train),
        Command("segment-apply", "segment-apply", {
            "checkpoint": "out/seg/checkpoint.cqck", "input_dir": "inputs/seg/apply",
            "output_dir": "out/apply",
        }, _check_segment_apply),
    ]

    def generate(root: Path, seed: int) -> None:
        inputs.write_annulus_set(root / "seg/images", root / "seg/masks", SEG_TRAIN, SEG_SIZE, seed, 2)
        inputs.write_annulus_set(root / "seg/apply", None, SEG_APPLY, SEG_SIZE, seed, 4)

    def metrics(wall: dict[str, float]) -> dict[str, float]:
        train = SEG_EPOCHS * SEG_TRAIN / wall["segment-train"]
        apply = SEG_APPLY / wall["segment-apply"]
        return {"seg_train_img_per_s": train, "seg_apply_img_per_s": apply,
                "train_img_per_s": train, "infer_img_per_s": apply}

    return Workload(
        "segment", generate, commands, metrics,
        ["pgms:inputs/seg/images", "pgms:inputs/seg/masks", "pgms:inputs/seg/apply",
         "checkpoint:out/seg/checkpoint.cqck:unpack_unet"],
    )


# -- synthesize --------------------------------------------------------------

SYN_DIMS = (256, 256, 176)
SYN_VOLUMES = {"neg": 3, "pos": 2}
SYN_PLANES = ("axial", "coronal", "sagittal")
# slices per volume and plane: n = 40 gives stride 4 of 176 axial positions (44 slices,
# 38 excluded) and stride 6 of 256 coronal or sagittal positions (43 slices, 16 excluded)
SYN_SLICES = {"axial": 6, "coronal": 27, "sagittal": 27}
SYN_EXCLUDE = {"axial": 19, "coronal": 8, "sagittal": 8}
SYN_SIZE = 128
SYN_DIFF_SIZE = 32
SYN_DIFF_EPOCHS = 40
SYN_TRAIN = {c: int(0.9 * n * SYN_SLICES["axial"]) for c, n in SYN_VOLUMES.items()}
SYN_SAMPLED = SYN_TRAIN["neg"] - SYN_TRAIN["pos"]
SYN_TRAIN_IMAGES = SYN_VOLUMES["pos"] * SYN_SLICES["axial"]  # the denoiser trains on all minority axial slices


def _check_slice(cls: str) -> Callable[[Path], None]:
    def check(work: Path) -> None:
        manifest = json.loads((work / f"out/tree/{cls}/manifest.json").read_text(encoding="utf-8"))
        _require(len(manifest["volumes"]) == SYN_VOLUMES[cls], f"slice {cls}: wrong volume count")
        for plane in SYN_PLANES:
            _pgm_dir(work / f"out/tree/{cls}/{plane}", SYN_VOLUMES[cls] * SYN_SLICES[plane], SYN_SIZE)
    return check


def _check_diffuse_train(work: Path) -> None:
    _finite_csv(work / "out/diffusion/curves.csv", ("loss",), SYN_DIFF_EPOCHS)
    _finite_checkpoint(work / "out/diffusion/checkpoint.cqck", "unpack_predictor")


def _check_balanced(work: Path) -> None:
    counts = {c: {"train": SYN_TRAIN["neg"],
                  "test": SYN_VOLUMES[c] * SYN_SLICES["axial"] - SYN_TRAIN[c]} for c in SYN_VOLUMES}
    _manifest(work / "out/dataset/manifest.json", counts, SYN_SAMPLED)
    for img in _pgm_dir(work / "out/dataset/synthetic/pos/axial", SYN_SAMPLED, SYN_SIZE):
        _require(bool(np.isfinite(img).all()), "synthetic image not finite")


def _synthesize() -> Workload:
    commands = [Command(f"slice.{cls}", "slice", {
        "input_dir": f"inputs/vols/{cls}", "output_dir": f"out/tree/{cls}", "plane": "3plane",
        "n": 40, **{f"{k}_{p}": SYN_EXCLUDE[p] for k in ("k1", "k2") for p in SYN_PLANES}, "size": SYN_SIZE,
    }, _check_slice(cls)) for cls in SYN_VOLUMES]
    commands.append(Command("diffuse-train", "diffuse-train", {
        "input_dir": "out/tree/pos/axial", "output_dir": "out/diffusion", "size": SYN_DIFF_SIZE,
        "widths": "8,16", "emb_dim": 16, "T": 200, "epochs": SYN_DIFF_EPOCHS, "batch_size": 16,
        "seed": 0, "timing": "zero",
    }, _check_diffuse_train))
    commands.append(Command("build-dataset", "build-dataset", {
        "input_dir": "out/tree", "output_dir": "out/dataset", "plane": "axial", "balance": "true",
        "size": SYN_SIZE, "seed": 0, "diffusion_ckpt_axial": "out/diffusion/checkpoint.cqck",
    }, _check_balanced))

    def metrics(wall: dict[str, float]) -> dict[str, float]:
        diffuse = SYN_DIFF_EPOCHS * SYN_TRAIN_IMAGES / wall["diffuse-train"]
        synth = SYN_SAMPLED / wall["build-dataset"]
        return {"slice_vol_per_s": sum(SYN_VOLUMES.values()) / sum(wall[f"slice.{c}"] for c in SYN_VOLUMES),
                "diffuse_train_img_per_s": diffuse, "synth_img_per_s": synth,
                "train_img_per_s": diffuse, "infer_img_per_s": synth}

    return Workload(
        "synthesize",
        lambda root, seed: inputs.write_volume_classes(root / "vols", SYN_VOLUMES, SYN_DIMS, seed),
        commands, metrics,
        ["pgms:out/tree/pos/axial", "checkpoint:out/diffusion/checkpoint.cqck:unpack_predictor",
         "manifest:out/dataset/manifest.json"],
    )


WORKLOADS = {w.name: w for w in (_classify(), _segment(), _synthesize())}
