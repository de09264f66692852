"""Implementations behind the CLI subcommands.

Every command is a function of a resolved config dict; all outputs are
pure functions of (config, seed, input bytes) except wall-clock columns,
which the `timing = zero` switch pins to 0 for byte-reproducible runs.
"""
from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from .. import volio
from ..cqcnn import (
    HEAD_CLASSICAL,
    HEAD_QUANTUM,
    CqcnnConfig,
    CqcnnModel,
    evaluate,
    train_epoch,
)
from ..diffusion import NoisePredictor, NoisePredictorConfig, build_schedule, sample, train_step
from ..errors import ConfigError, CqbrainError, EmptyInput
from ..neuralkernel import make_optimizer
from ..rng import Rng
from ..skullnet import MaskPair, UNet, UNetConfig, segment_apply, train_segmenter
from ..volio import Image2D, Plane, read_pgm, resize_bilinear, write_pgm
from .checkpoint import load_checkpoint, save_checkpoint
from .config import Field
from .dataset import DatasetManifest, build_dataset, load_split
from .modelio import (
    pack_cqcnn,
    pack_predictor,
    pack_unet,
    unpack_cqcnn,
    unpack_predictor,
    unpack_unet,
)
from .report import CURVE_COLUMNS, SUMMARY_COLUMNS, summarize_runs, write_csv

_TIMING = Field("choice", "wall", ("wall", "zero"))

SEG_CURVE_COLUMNS = ["run", "seed", "epoch", "loss", "dice", "iou", "epoch_time_s"]
DIFF_CURVE_COLUMNS = ["run", "seed", "epoch", "loss", "epoch_time_s"]
EVAL_COLUMNS = ["split", "n", "loss", "accuracy", "precision", "recall", "f1", "specificity"]

SCHEMAS: dict[str, dict[str, Field]] = {
    "slice": {
        "input_dir": Field("in_path"),
        "output_dir": Field("out_path"),
        "plane": Field("choice", "3plane", ("axial", "coronal", "sagittal", "3plane")),
        "n": Field("int", 40),
        "k1_axial": Field("int", 10),
        "k2_axial": Field("int", 18),
        "k1_coronal": Field("int", 10),
        "k2_coronal": Field("int", 18),
        "k1_sagittal": Field("int", 13),
        "k2_sagittal": Field("int", 15),
        "size": Field("int", 128),
    },
    "segment-train": {
        "images_dir": Field("in_path"),
        "masks_dir": Field("in_path"),
        "output_dir": Field("out_path"),
        "size": Field("int", 128),
        "width_scale": Field("float", 1.0),
        "epochs": Field("int", 30),
        "lr": Field("float", 3e-3),
        "batch_size": Field("int", 8),
        "seed": Field("int", 0),
        "run": Field("str", "segment"),
        "timing": _TIMING,
    },
    "segment-apply": {
        "checkpoint": Field("in_path"),
        "input_dir": Field("in_path"),
        "output_dir": Field("out_path"),
    },
    "diffuse-train": {
        "input_dir": Field("in_path"),
        "output_dir": Field("out_path"),
        "size": Field("int", 64),
        "widths": Field("str", "8,16"),
        "emb_dim": Field("int", 16),
        "T": Field("int", 200),
        "beta_start": Field("float", 1e-4),
        "beta_end": Field("float", 0.02),
        "epochs": Field("int", 500),
        "batch_size": Field("int", 16),
        "lr": Field("float", 2e-3),
        "seed": Field("int", 0),
        "run": Field("str", "diffusion"),
        "timing": _TIMING,
    },
    "diffuse-sample": {
        "checkpoint": Field("in_path"),
        "output_dir": Field("out_path"),
        "count": Field("int"),
        "seed": Field("int", 0),
    },
    "build-dataset": {
        "input_dir": Field("in_path"),
        "output_dir": Field("out_path"),
        "plane": Field("choice", "3plane", ("axial", "coronal", "sagittal", "3plane")),
        "seed": Field("int", 0),
        "balance": Field("bool", True),
        "size": Field("int", 128),
        "diffusion_ckpt_axial": Field("in_path", None),
        "diffusion_ckpt_coronal": Field("in_path", None),
        "diffusion_ckpt_sagittal": Field("in_path", None),
    },
    "train": {
        "dataset": Field("in_path"),
        "output_dir": Field("out_path"),
        "run": Field("str", "run"),
        "qubits": Field("int", 2),
        "head": Field("choice", "quantum", ("quantum", "classical")),
        "fc_width": Field("int", 0),  # 0: match the qubit count
        "dropout": Field("float", 0.5),
        "lr": Field("float", 1e-3),
        "epochs": Field("int", 10),
        "batch_size": Field("int", 1),
        "seed": Field("int", 0),
        "skull_strip": Field("bool", False),
        "skullnet_ckpt": Field("in_path", None),
        "timing": _TIMING,
    },
    "evaluate": {
        "checkpoint": Field("in_path"),
        "dataset": Field("in_path"),
        "output": Field("out_path"),
        "split": Field("choice", "test", ("train", "test")),
        "skull_strip": Field("bool", False),
        "skullnet_ckpt": Field("in_path", None),
    },
    "report": {
        "runs": Field("str"),
        "output": Field("out_path"),
        "threshold": Field("float", 0.95),
    },
}

_PLANE_KEYS = {
    Plane.AXIAL: ("k1_axial", "k2_axial"),
    Plane.CORONAL: ("k1_coronal", "k2_coronal"),
    Plane.SAGITTAL: ("k1_sagittal", "k2_sagittal"),
}


def _load_pgm_dir(path: Path, size: int | None = None) -> list[tuple[str, np.ndarray]]:
    files = sorted(path.glob("*.pgm"))
    if not files:
        raise EmptyInput(f"no .pgm files in {path}")
    out = []
    for f in files:
        img = read_pgm(f.read_bytes())
        if size is not None and (img.width, img.height) != (size, size):
            img = resize_bilinear(img, size, size)
        out.append((f.name, img.pixels))
    return out


def cmd_slice(cfg: dict) -> dict:
    """NIfTI volumes -> per-plane resized PGM slices plus a manifest."""
    in_dir: Path = cfg["input_dir"]
    out_dir: Path = cfg["output_dir"]
    volumes = sorted(in_dir.glob("*.nii"))
    if not volumes:
        raise EmptyInput(f"no .nii files in {in_dir}")
    planes = list(Plane) if cfg["plane"] == "3plane" else [Plane(cfg["plane"])]
    manifest: dict = {"size": cfg["size"], "volumes": {}}
    for vol_path in volumes:
        try:
            _, vol = volio.parse_nifti(vol_path.read_bytes())
        except CqbrainError as exc:
            raise type(exc)(f"{vol_path.name}: {exc}") from exc
        record: dict = {}
        for plane in planes:
            k1, k2 = (cfg[k] for k in _PLANE_KEYS[plane])
            try:
                plan = volio.plan_slices(plane, vol.plane_extent(plane), cfg["n"], k1, k2)
            except CqbrainError as exc:
                raise type(exc)(f"{vol_path.name} [{plane.value}]: {exc}") from exc
            plane_dir = out_dir / plane.value
            plane_dir.mkdir(parents=True, exist_ok=True)
            files = []
            for idx in plan.indices:
                img = volio.extract_slice(vol, plane, idx)
                img = resize_bilinear(img, cfg["size"], cfg["size"])
                name = f"{vol_path.stem}_{plane.value}_{idx:03d}.pgm"
                (plane_dir / name).write_bytes(write_pgm(img))
                files.append(name)
            record[plane.value] = {
                "interval": plan.i, "n_slices": plan.n_slices, "files": files,
            }
        manifest["volumes"][vol_path.name] = record
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True),
                                           encoding="utf-8")
    return manifest


def cmd_segment_train(cfg: dict) -> list:
    images = _load_pgm_dir(cfg["images_dir"], cfg["size"])
    masks = dict(_load_pgm_dir(cfg["masks_dir"], cfg["size"]))
    pairs = [MaskPair(img, masks[name]) for name, img in images if name in masks]
    if not pairs:
        raise EmptyInput("no image/mask filename matches between the two directories")
    model = UNet(UNetConfig(input_size=cfg["size"], width_scale=cfg["width_scale"]),
                 Rng(cfg["seed"]).derive("init"))
    optimizer = make_optimizer("adam", lr=cfg["lr"])
    reports = train_segmenter(model, pairs, cfg["epochs"], optimizer, cfg["seed"], cfg["batch_size"])
    out_dir: Path = cfg["output_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "checkpoint.cqck", pack_unet(model))
    rows = [{
        "run": cfg["run"], "seed": cfg["seed"], "epoch": r.epoch,
        "loss": f"{r.loss:.6f}", "dice": f"{r.dice:.6f}", "iou": f"{r.iou:.6f}",
        "epoch_time_s": "0.000" if cfg["timing"] == "zero" else f"{r.wall_time_s:.3f}",
    } for r in reports]
    write_csv(out_dir / "curves.csv", SEG_CURVE_COLUMNS, rows)
    return reports


def cmd_segment_apply(cfg: dict) -> int:
    model = unpack_unet(load_checkpoint(cfg["checkpoint"]))
    size = model.config.input_size
    images = _load_pgm_dir(cfg["input_dir"], size)
    out_dir: Path = cfg["output_dir"]
    (out_dir / "masks").mkdir(parents=True, exist_ok=True)
    (out_dir / "stripped").mkdir(parents=True, exist_ok=True)
    for name, img in images:
        mask, stripped = segment_apply(model, img)
        (out_dir / "masks" / name).write_bytes(write_pgm(Image2D(size, size, mask)))
        (out_dir / "stripped" / name).write_bytes(write_pgm(Image2D(size, size, stripped)))
    return len(images)


def cmd_diffuse_train(cfg: dict) -> list:
    images = _load_pgm_dir(cfg["input_dir"], cfg["size"])
    data = np.stack([img for _, img in images]) * 2.0 - 1.0  # [0,1] -> [-1,1]
    widths = tuple(int(w) for w in str(cfg["widths"]).split(","))
    predictor = NoisePredictor(NoisePredictorConfig(cfg["size"], widths, cfg["emb_dim"]),
                               Rng(cfg["seed"]).derive("init"))
    schedule = build_schedule(cfg["T"], cfg["beta_start"], cfg["beta_end"])
    optimizer = make_optimizer("adam", lr=cfg["lr"])
    rng = Rng(cfg["seed"])
    rows = []
    for epoch in range(cfg["epochs"]):
        start = time.perf_counter()
        order = rng.derive(f"shuffle:{epoch}").permutation(len(data))
        losses = []
        for b0 in range(0, len(order), cfg["batch_size"]):
            batch = data[order[b0 : b0 + cfg["batch_size"]]].astype(np.float32)
            losses.append(train_step(predictor, batch, schedule, optimizer,
                                     rng.derive(f"step:{epoch}:{b0}")))
        elapsed = time.perf_counter() - start
        rows.append({
            "run": cfg["run"], "seed": cfg["seed"], "epoch": epoch,
            "loss": f"{float(np.mean(losses)):.6f}",
            "epoch_time_s": "0.000" if cfg["timing"] == "zero" else f"{elapsed:.3f}",
        })
    out_dir: Path = cfg["output_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "checkpoint.cqck",
                    pack_predictor(predictor, (cfg["T"], cfg["beta_start"], cfg["beta_end"])))
    write_csv(out_dir / "curves.csv", DIFF_CURVE_COLUMNS, rows)
    return rows


def cmd_diffuse_sample(cfg: dict) -> list[str]:
    predictor, (t_steps, beta_start, beta_end) = unpack_predictor(load_checkpoint(cfg["checkpoint"]))
    schedule = build_schedule(t_steps, beta_start, beta_end)
    size = predictor.config.image_size
    images = sample(predictor, schedule, (size, size), Rng(cfg["seed"]).derive("sample"),
                    count=cfg["count"])
    out_dir: Path = cfg["output_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for i, img in enumerate(images):
        name = f"sample_{i:04d}.pgm"
        (out_dir / name).write_bytes(write_pgm(Image2D(size, size, img)))
        names.append(name)
    return names


def cmd_build_dataset(cfg: dict) -> DatasetManifest:
    ckpts = {}
    for plane in ("axial", "coronal", "sagittal"):
        path = cfg[f"diffusion_ckpt_{plane}"]
        if path is not None:
            ckpts[plane] = path
    return build_dataset(cfg["input_dir"], cfg["output_dir"], cfg["plane"], cfg["seed"],
                         balance=cfg["balance"], diffusion_ckpts=ckpts, image_size=cfg["size"])


def _strip_dataset(data: list[tuple[np.ndarray, int]], ckpt: Path | None) -> list:
    if ckpt is None:
        raise ConfigError("skull_strip = true needs skullnet_ckpt")
    model = unpack_unet(load_checkpoint(ckpt))
    out = []
    for img, label in data:
        if img.shape != (model.config.input_size,) * 2:
            pic = resize_bilinear(Image2D(img.shape[1], img.shape[0], img),
                                  model.config.input_size, model.config.input_size)
            img = pic.pixels
        _, stripped = segment_apply(model, img)
        out.append((stripped, label))
    return out


def _metric_row(result, split: str, extra: dict) -> dict:
    m = result.metrics
    row = {
        "split": split, "loss": f"{result.loss:.6f}",
        "accuracy": f"{m['accuracy']:.6f}", "precision": f"{m['precision']:.6f}",
        "recall": f"{m['recall']:.6f}", "f1": f"{m['f1']:.6f}",
        "specificity": f"{m['specificity']:.6f}",
    }
    row.update(extra)
    return row


def cmd_train(cfg: dict) -> dict:
    manifest = DatasetManifest.load(cfg["dataset"])
    train_set = load_split(manifest, "train")
    test_set = load_split(manifest, "test")
    if cfg["skull_strip"]:
        train_set = _strip_dataset(train_set, cfg["skullnet_ckpt"])
        test_set = _strip_dataset(test_set, cfg["skullnet_ckpt"])

    head = HEAD_QUANTUM if cfg["head"] == "quantum" else HEAD_CLASSICAL
    model_cfg = CqcnnConfig(
        image_size=manifest.image_size,
        dropout_rate=cfg["dropout"],
        n_qubits=cfg["qubits"],
        fc_width=cfg["fc_width"] if cfg["fc_width"] > 0 else None,
        head=head,
        seed=cfg["seed"],
    )
    model = CqcnnModel(model_cfg, Rng(cfg["seed"]).derive("init"))
    optimizer = make_optimizer("adam", lr=cfg["lr"])

    qubits_label = cfg["qubits"] if head == HEAD_QUANTUM else 0
    base = {"run": cfg["run"], "plane": manifest.plane,
            "skull_stripped": str(bool(cfg["skull_strip"])).lower(), "qubits": qubits_label,
            "seed": cfg["seed"]}
    rows = []
    for epoch in range(cfg["epochs"]):
        report = train_epoch(model, train_set, optimizer, cfg["seed"], epoch, cfg["batch_size"])
        elapsed = 0.0 if cfg["timing"] == "zero" else report.wall_time_s
        test_eval = evaluate(model, test_set) if test_set else None
        rows.append(_metric_row(report.train_eval, "train",
                                {**base, "epoch": epoch, "epoch_time_s": f"{elapsed:.3f}",
                                 "loss": f"{report.loss:.6f}"}))
        if test_eval is not None:
            rows.append(_metric_row(test_eval, "test",
                                    {**base, "epoch": epoch, "epoch_time_s": "0.000"}))

    out_dir: Path = cfg["output_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "checkpoint.cqck", pack_cqcnn(model))
    write_csv(out_dir / "curves.csv", CURVE_COLUMNS, rows)
    (out_dir / "run.json").write_text(json.dumps(
        {"run": cfg["run"], "plane": manifest.plane, "qubits": qubits_label,
         "head": cfg["head"], "seed": cfg["seed"], "skull_strip": bool(cfg["skull_strip"]),
         "epochs": cfg["epochs"]}, indent=2, sort_keys=True), encoding="utf-8")
    return {"rows": rows, "model": model}


def cmd_evaluate(cfg: dict) -> dict:
    model = unpack_cqcnn(load_checkpoint(cfg["checkpoint"]))
    manifest = DatasetManifest.load(cfg["dataset"])
    data = load_split(manifest, cfg["split"])
    if cfg["skull_strip"]:
        data = _strip_dataset(data, cfg["skullnet_ckpt"])
    result = evaluate(model, data)
    row = _metric_row(result, cfg["split"], {"n": len(data)})
    write_csv(cfg["output"], EVAL_COLUMNS, [row])
    return row


def cmd_report(cfg: dict) -> list[dict]:
    run_dirs: list[Path] = []
    for token in str(cfg["runs"]).split(","):
        token = token.strip()
        if not token:
            continue
        if any(ch in token for ch in "*?["):
            base = Path(".")
            run_dirs.extend(sorted(base.glob(token)))
        else:
            run_dirs.append(Path(token))
    rows = summarize_runs(run_dirs, cfg["threshold"])
    write_csv(cfg["output"], SUMMARY_COLUMNS, rows)
    return rows


COMMANDS = {
    "slice": cmd_slice,
    "segment-train": cmd_segment_train,
    "segment-apply": cmd_segment_apply,
    "diffuse-train": cmd_diffuse_train,
    "diffuse-sample": cmd_diffuse_sample,
    "build-dataset": cmd_build_dataset,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}
