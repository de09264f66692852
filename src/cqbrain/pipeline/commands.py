"""Implementations behind the CLI subcommands.

Every command is a function of a resolved config dict; all outputs are
pure functions of (config, seed, input bytes) except wall-clock columns,
which the `timing = zero` switch pins to 0 for byte-reproducible runs.
"""
from __future__ import annotations

import glob
import json
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
from ..diffusion import (
    DEFAULT_BETA_END,
    DEFAULT_BETA_START,
    DESK_T,
    NoisePredictor,
    NoisePredictorConfig,
    build_schedule,
    train_step,
)
from ..errors import ConfigError, CqbrainError, EmptyInput, InvalidArgument
from ..neuralkernel import make_optimizer, run_epoch
from ..rng import Rng
from ..skullnet import MaskPair, UNet, UNetConfig, segment_many, train_segmenter
from ..volio import Image2D, Plane, fit, read_pgm, resize_bilinear, write_pgm
from .atomic import write_atomic
from .checkpoint import load_checkpoint, save_checkpoint
from .config import Field
from .dataset import PLANES, DatasetManifest, build_dataset, load_split, sample_pgms
from .modelio import (
    pack_cqcnn,
    pack_predictor,
    pack_unet,
    unpack_cqcnn,
    unpack_unet,
)
from .report import CURVE_COLUMNS, SUMMARY_COLUMNS, summarize_runs, write_csv

_TIMING = Field("choice", "wall", ("wall", "zero"))
_PLANE = Field("choice", "3plane", (*PLANES, "3plane"))

SEG_CURVE_COLUMNS = ["run", "seed", "epoch", "loss", "dice", "iou", "epoch_time_s"]
DIFF_CURVE_COLUMNS = ["run", "seed", "epoch", "loss", "epoch_time_s"]
EVAL_COLUMNS = ["split", "n", "loss", "accuracy", "precision", "recall", "f1", "specificity"]

SCHEMAS: dict[str, dict[str, Field]] = {
    "slice": {
        "input_dir": Field("in_dir"),
        "output_dir": Field("out_path"),
        "plane": _PLANE,
        "n": Field("int", 40, low=0),
        "k1_axial": Field("int", 10, low=-1),
        "k2_axial": Field("int", 18, low=-1),
        "k1_coronal": Field("int", 10, low=-1),
        "k2_coronal": Field("int", 18, low=-1),
        "k1_sagittal": Field("int", 13, low=-1),
        "k2_sagittal": Field("int", 15, low=-1),
        "size": Field("int", 128, low=0),
    },
    "segment-train": {
        "images_dir": Field("in_dir"),
        "masks_dir": Field("in_dir"),
        "output_dir": Field("out_path"),
        "size": Field("int", 128, low=0),
        "width_scale": Field("float", 1.0, low=0),
        "epochs": Field("int", 30, low=0),
        "lr": Field("float", 3e-3, low=0),
        "batch_size": Field("int", 8, low=0),
        "seed": Field("int", 0),
        "run": Field("str", "segment"),
        "timing": _TIMING,
    },
    "segment-apply": {
        "checkpoint": Field("in_file"),
        "input_dir": Field("in_dir"),
        "output_dir": Field("out_path"),
    },
    "diffuse-train": {
        "input_dir": Field("in_dir"),
        "output_dir": Field("out_path"),
        "size": Field("int", 64, low=0),
        "widths": Field("ints", (8, 16), low=0),
        "emb_dim": Field("int", 16, low=1),
        "T": Field("int", DESK_T, low=0),
        "beta_start": Field("float", DEFAULT_BETA_START, low=0),
        "beta_end": Field("float", DEFAULT_BETA_END, low=0),
        "epochs": Field("int", 500, low=0),
        "batch_size": Field("int", 16, low=0),
        "lr": Field("float", 2e-3, low=0),
        "seed": Field("int", 0),
        "run": Field("str", "diffusion"),
        "timing": _TIMING,
    },
    "diffuse-sample": {
        "checkpoint": Field("in_file"),
        "output_dir": Field("out_path"),
        "count": Field("int", low=0),
        "seed": Field("int", 0),
    },
    "build-dataset": {
        "input_dir": Field("in_dir"),
        "output_dir": Field("out_path"),
        "plane": _PLANE,
        "seed": Field("int", 0),
        "balance": Field("bool", True),
        "size": Field("int", 128, low=0),
        "diffusion_ckpt_axial": Field("in_file", None),
        "diffusion_ckpt_coronal": Field("in_file", None),
        "diffusion_ckpt_sagittal": Field("in_file", None),
    },
    "train": {
        "dataset": Field("in_file"),
        "output_dir": Field("out_path"),
        "run": Field("str", "run"),
        "qubits": Field("int", 2),
        "head": Field("choice", "quantum", ("quantum", "classical")),
        "fc_width": Field("int", 0, low=-1),  # 0: match the qubit count
        "dropout": Field("float", 0.5),
        "lr": Field("float", 1e-3, low=0),
        "epochs": Field("int", 10, low=0),
        "seed": Field("int", 0),
        "skull_strip": Field("bool", False),
        "skullnet_ckpt": Field("in_file", None),
        "timing": _TIMING,
    },
    "evaluate": {
        "checkpoint": Field("in_file"),
        "dataset": Field("in_file"),
        "output": Field("out_path"),
        "split": Field("choice", "test", ("train", "test")),
        "skull_strip": Field("bool", False),
        "skullnet_ckpt": Field("in_file", None),
    },
    "report": {
        "runs": Field("str"),
        "output": Field("out_path"),
        "threshold": Field("float", 0.95),
    },
}

def _load_pgm_dir(path: Path, size: int) -> list[tuple[str, np.ndarray]]:
    files = sorted(path.glob("*.pgm"))
    if not files:
        raise EmptyInput(f"no .pgm files in {path}")
    return [(f.name, fit(read_pgm(f.read_bytes()), size, size).pixels) for f in files]


def _slice_volume(vol_path: Path, planes: list[Plane], cfg: dict, written: list[Path]) -> dict:
    """Write one volume's PGM slices, appending each path to `written`; returns its manifest record."""
    try:
        _, vol = volio.parse_nifti(vol_path.read_bytes())
    except CqbrainError as exc:
        raise type(exc)(f"{vol_path.name}: {exc}") from exc
    record: dict = {}
    for plane in planes:
        k1, k2 = cfg[f"k1_{plane.value}"], cfg[f"k2_{plane.value}"]
        try:
            plan = volio.plan_slices(plane, vol.plane_extent(plane), cfg["n"], k1, k2)
            plane_dir = cfg["output_dir"] / plane.value
            plane_dir.mkdir(parents=True, exist_ok=True)
            files = []
            for idx in plan.indices:
                img = volio.extract_slice(vol, plane, idx)
                img = resize_bilinear(img, cfg["size"], cfg["size"])
                path = plane_dir / f"{vol_path.stem}_{plane.value}_{idx:03d}.pgm"
                path.write_bytes(write_pgm(img))
                written.append(path)
                files.append(path.name)
        except CqbrainError as exc:
            raise type(exc)(f"{vol_path.name} [{plane.value}]: {exc}") from exc
        record[plane.value] = {
            "interval": plan.i, "n_slices": plan.n_slices, "files": files,
        }
    return record


def cmd_slice(cfg: dict) -> None:
    """NIfTI volumes -> per-plane resized PGM slices plus a manifest, one volume in memory at a time.

    A call that fails unlinks every PGM it wrote: no manifest would list them.
    """
    in_dir: Path = cfg["input_dir"]
    volumes = sorted(in_dir.glob("*.nii"))
    if not volumes:
        raise EmptyInput(f"no .nii files in {in_dir}")
    planes = list(Plane) if cfg["plane"] == "3plane" else [Plane(cfg["plane"])]
    manifest: dict = {"size": cfg["size"], "volumes": {}}
    written: list[Path] = []
    try:
        for vol_path in volumes:
            manifest["volumes"][vol_path.name] = _slice_volume(vol_path, planes, cfg, written)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    write_atomic(cfg["output_dir"] / "manifest.json",
                 json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"))


def _checked(keys: str, build, *args, **kwargs):
    """build(*args, **kwargs), with the model's own check failing as a config error naming `keys`."""
    try:
        return build(*args, **kwargs)
    except InvalidArgument as exc:
        raise ConfigError(f"{keys}: {exc}") from exc


def _epoch_time(cfg: dict, seconds: float) -> str:
    """An epoch's `epoch_time_s` column: 0.000 under `timing = zero`."""
    return "0.000" if cfg["timing"] == "zero" else f"{seconds:.3f}"


def _save_run(out_dir: Path, tensors: dict, columns: list[str], rows: list[dict]) -> None:
    """A training run's outputs: out_dir/checkpoint.cqck and out_dir/curves.csv."""
    save_checkpoint(out_dir / "checkpoint.cqck", tensors)
    write_csv(out_dir / "curves.csv", columns, rows)


def cmd_segment_train(cfg: dict) -> None:
    unet_cfg = _checked("size", UNetConfig, input_size=cfg["size"], width_scale=cfg["width_scale"])
    images = _load_pgm_dir(cfg["images_dir"], cfg["size"])
    masks = dict(_load_pgm_dir(cfg["masks_dir"], cfg["size"]))
    pairs = [MaskPair(img, masks[name]) for name, img in images if name in masks]
    if not pairs:
        raise EmptyInput("no image/mask filename matches between the two directories")
    model = UNet(unet_cfg, Rng(cfg["seed"]).derive("init"))
    optimizer = make_optimizer("adam", lr=cfg["lr"])
    reports = train_segmenter(model, pairs, cfg["epochs"], optimizer, cfg["seed"], cfg["batch_size"])
    rows = [{
        "run": cfg["run"], "seed": cfg["seed"], "epoch": r.epoch,
        "loss": f"{r.loss:.6f}", "dice": f"{r.dice:.6f}", "iou": f"{r.iou:.6f}",
        "epoch_time_s": _epoch_time(cfg, r.wall_time_s),
    } for r in reports]
    _save_run(cfg["output_dir"], pack_unet(model), SEG_CURVE_COLUMNS, rows)


def cmd_segment_apply(cfg: dict) -> None:
    model = unpack_unet(load_checkpoint(cfg["checkpoint"]))
    size = model.config.input_size
    images = _load_pgm_dir(cfg["input_dir"], size)
    dirs = (cfg["output_dir"] / "masks", cfg["output_dir"] / "stripped")
    for n, ((name, _), outputs) in enumerate(zip(images, segment_many(model, [img for _, img in images]))):
        for out_dir, pixels in zip(dirs, outputs):  # the mask, then the stripped image
            if n == 0:  # a run that diverges in its first chunk leaves no directory
                out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / name).write_bytes(write_pgm(Image2D(size, size, pixels)))


def cmd_diffuse_train(cfg: dict) -> None:
    predictor_cfg = _checked("size, widths, emb_dim", NoisePredictorConfig,
                             cfg["size"], cfg["widths"], cfg["emb_dim"])
    schedule = _checked("beta_start, beta_end", build_schedule, cfg["T"], cfg["beta_start"], cfg["beta_end"])
    images = _load_pgm_dir(cfg["input_dir"], cfg["size"])
    data = np.stack([img for _, img in images]) * 2.0 - 1.0  # [0,1] -> [-1,1]
    predictor = NoisePredictor(predictor_cfg, Rng(cfg["seed"]).derive("init"))
    optimizer = make_optimizer("adam", lr=cfg["lr"])
    rng = Rng(cfg["seed"])
    rows = []
    for epoch in range(cfg["epochs"]):
        loss, seconds = run_epoch(rng.derive(f"shuffle:{epoch}"), len(data), cfg["batch_size"], epoch,
                                  lambda indices, b0: train_step(predictor, data[indices], schedule, optimizer,
                                                                 rng.derive(f"step:{epoch}:{b0}")))
        rows.append({
            "run": cfg["run"], "seed": cfg["seed"], "epoch": epoch, "loss": f"{loss:.6f}",
            "epoch_time_s": _epoch_time(cfg, seconds),
        })
    _save_run(cfg["output_dir"], pack_predictor(predictor, schedule), DIFF_CURVE_COLUMNS, rows)


def cmd_diffuse_sample(cfg: dict) -> None:
    sample_pgms(cfg["checkpoint"], cfg["count"], Rng(cfg["seed"]).derive("sample"),
                cfg["output_dir"], "sample")


def cmd_build_dataset(cfg: dict) -> None:
    ckpts = {p: cfg[f"diffusion_ckpt_{p}"] for p in PLANES if cfg[f"diffusion_ckpt_{p}"] is not None}
    build_dataset(cfg["input_dir"], cfg["output_dir"], cfg["plane"], cfg["seed"],
                  balance=cfg["balance"], diffusion_ckpts=ckpts, image_size=cfg["size"])


def _check_strip(cfg: dict) -> None:
    """Reject skull stripping without a U-Net checkpoint, before any input is read."""
    if cfg["skull_strip"] and cfg["skullnet_ckpt"] is None:
        raise ConfigError("skullnet_ckpt: required when skull_strip = true")


def _strip_dataset(data: list[tuple[np.ndarray, int]], ckpt: Path) -> list:
    """Skull-strip every image; images keep their size, whatever the U-Net's input size."""
    model = unpack_unet(load_checkpoint(ckpt))
    size = model.config.input_size
    resized = [fit(Image2D(img.shape[1], img.shape[0], img), size, size).pixels for img, _ in data]
    return [(fit(Image2D(size, size, stripped), img.shape[1], img.shape[0]).pixels, label)
            for (img, label), (_, stripped) in zip(data, segment_many(model, resized))]


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


def _check_head(cfg: dict) -> None:
    """Reject head settings CqcnnConfig cannot build, naming the config key."""
    _checked("qubits", CqcnnConfig, n_qubits=cfg["qubits"])
    _checked("fc_width", CqcnnConfig, n_qubits=cfg["qubits"], fc_width=cfg["fc_width"])
    _checked("dropout", CqcnnConfig, dropout_rate=cfg["dropout"])


def cmd_train(cfg: dict) -> None:
    _check_head(cfg)
    _check_strip(cfg)
    manifest = DatasetManifest.load(cfg["dataset"])
    train_set = load_split(manifest, "train")
    test_set = load_split(manifest, "test")
    if cfg["skull_strip"]:  # both splits through one loaded U-Net
        stripped = _strip_dataset(train_set + test_set, cfg["skullnet_ckpt"])
        train_set, test_set = stripped[: len(train_set)], stripped[len(train_set) :]

    head = HEAD_QUANTUM if cfg["head"] == "quantum" else HEAD_CLASSICAL
    model_cfg = CqcnnConfig(
        image_size=manifest.image_size,
        dropout_rate=cfg["dropout"],
        n_qubits=cfg["qubits"],
        fc_width=cfg["fc_width"],
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
        report = train_epoch(model, train_set, optimizer, cfg["seed"], epoch)
        test_eval = evaluate(model, test_set) if test_set else None
        rows.append(_metric_row(report.train_eval, "train",
                                {**base, "epoch": epoch, "epoch_time_s": _epoch_time(cfg, report.wall_time_s),
                                 "loss": f"{report.loss:.6f}"}))
        if test_eval is not None:
            rows.append(_metric_row(test_eval, "test",
                                    {**base, "epoch": epoch, "epoch_time_s": "0.000"}))

    out_dir: Path = cfg["output_dir"]
    _save_run(out_dir, pack_cqcnn(model), CURVE_COLUMNS, rows)
    write_atomic(out_dir / "run.json", json.dumps(
        {"run": cfg["run"], "plane": manifest.plane, "qubits": qubits_label,
         "head": cfg["head"], "seed": cfg["seed"], "skull_strip": bool(cfg["skull_strip"]),
         "epochs": cfg["epochs"]}, indent=2, sort_keys=True).encode("utf-8"))


def cmd_evaluate(cfg: dict) -> None:
    _check_strip(cfg)
    model = unpack_cqcnn(load_checkpoint(cfg["checkpoint"]))
    manifest = DatasetManifest.load(cfg["dataset"])
    data = load_split(manifest, cfg["split"])
    if cfg["skull_strip"]:
        data = _strip_dataset(data, cfg["skullnet_ckpt"])
    result = evaluate(model, data)
    row = _metric_row(result, cfg["split"], {"n": len(data)})
    write_csv(cfg["output"], EVAL_COLUMNS, [row])


def cmd_report(cfg: dict) -> None:
    # each comma-separated token is a directory or a glob, relative or absolute
    run_dirs = [path for token in str(cfg["runs"]).split(",")
                for path in sorted(map(Path, glob.glob(token.strip())))]
    rows = summarize_runs(run_dirs, cfg["threshold"])
    write_csv(cfg["output"], SUMMARY_COLUMNS, rows)


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
