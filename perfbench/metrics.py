"""Metric names and units: the end-to-end set, the per-command detail set, the per-layer set.

BENCHMARK.json lists END_TO_END and PER_LAYER; the self-tests keep the two
in step. Every workload reports every end-to-end metric, so those are
defined for all three workloads: training throughput, forward-only
throughput, the wall time of the whole command sequence, set-up time and
peak memory. The per-command throughputs (DETAIL) exist on one workload
each; they are printed by name and unit and compared by compare.py under
the bound of the end-to-end metric they feed.

Per-layer names are `<layer>.<function>.<stat>` with stat `calls`, `s`
(inclusive seconds) or `self_s`, summed over one traced round. The derived
ones: `qsim.circuits` counts statevector simulations (1 per forward, 2G per
backward with G parameterized gates); `neuralkernel.*.<caller>` are
convolution FLOPs, im2col bytes and the share of computed input-gradient
FLOPs the caller uses, per calling module; `skullnet.level<k>.s` is
convolution time at U-Net level k (input size / 2^k); `diffusion.step_s` is
sampling time per denoiser step; `cqcnn.eval_forwards_per_train_step`
counts eval-mode forwards per backward inside `train` commands;
`pipeline.checkpoint_bytes` is bytes saved plus bytes loaded;
`tracing.overhead_*` is the traced minus the untraced round time.
"""
from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# the package's modules, which name the per-layer metrics
LAYERS = ("volio", "neuralkernel", "qsim", "cqcnn", "skullnet", "diffusion", "rng", "pipeline")

# name -> unit, direction
END_TO_END = {
    "train_img_per_s": ("img/s", "higher"),
    "infer_img_per_s": ("img/s", "higher"),
    "workflow_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> unit, direction, workload, end-to-end metric whose bound it uses
DETAIL = {
    "train_img_per_s.q2": ("img/s", "higher", "classify", "train_img_per_s"),
    "train_img_per_s.q3": ("img/s", "higher", "classify", "train_img_per_s"),
    "train_img_per_s.classical": ("img/s", "higher", "classify", "train_img_per_s"),
    "eval_img_per_s": ("img/s", "higher", "classify", "infer_img_per_s"),
    "seg_train_img_per_s": ("img/s", "higher", "segment", "train_img_per_s"),
    "seg_apply_img_per_s": ("img/s", "higher", "segment", "infer_img_per_s"),
    "slice_vol_per_s": ("vol/s", "higher", "synthesize", "workflow_s"),
    "diffuse_train_img_per_s": ("img/s", "higher", "synthesize", "train_img_per_s"),
    "synth_img_per_s": ("img/s", "higher", "synthesize", "infer_img_per_s"),
}


def _stats(prefix: str, names: list[str], stats: tuple[str, ...]) -> list[str]:
    return [f"{prefix}.{n}.{s}" for n in names for s in stats]


_CS = ("calls", "s")
_FULL = ("calls", "s", "self_s")

# Leaf functions (no traced call inside them) get calls and s only: their self time is their time.
PER_LAYER_NAMES = (
    _stats("qsim", ["pqc_forward", "pqc_backward"], _CS)
    + ["qsim.circuits", "qsim.errors"]
    + _stats("cqcnn", ["conv2d", "conv2d_backward", "maxpool2x2", "maxpool2x2_backward", "dense",
                       "dense_backward", "dropout", "relu", "optim_step"], _CS)
    + _stats("cqcnn.CqcnnModel", ["forward.train", "forward.eval", "backward"], _FULL)
    + ["cqcnn.eval_forwards_per_train_step", "cqcnn.errors"]
    + [f"neuralkernel.{m}.{caller}" for m in ("conv_flop", "im2col_bytes", "conv_dx_useful_ratio")
       for caller in ("cqcnn", "skullnet")]
    + ["neuralkernel.errors"]
    + _stats("skullnet.UNet", ["forward", "backward"], _FULL)
    + _stats("skullnet", ["segmentation_loss"], _CS)
    + _stats("skullnet", ["seg_scores"], _FULL)
    + [f"skullnet.level{k}.s" for k in range(5)]
    + _stats("skullnet", ["conv2d", "conv2d_backward", "conv_transpose2x2",
                          "conv_transpose2x2_backward", "optim_step"], _CS)
    + ["skullnet.errors"]
    + _stats("diffusion.NoisePredictor", ["forward", "backward"], _FULL)
    + _stats("diffusion", ["train_step", "sample"], _FULL)
    + ["diffusion.step_s"]
    + _stats("diffusion", ["optim_step"], _CS)
    + ["diffusion.errors"]
    + _stats("rng.Rng", ["uniform", "normal", "permutation"], _CS)
    + ["rng.errors"]
    + _stats("volio", ["parse_nifti", "extract_slice", "resize_bilinear", "read_pgm", "write_pgm"], _CS)
    + ["volio.bytes_in", "volio.bytes_out", "volio.errors"]
    + _stats("pipeline", ["load_config", "load_split", "build_dataset", "save_checkpoint",
                          "load_checkpoint", "write_csv", "summarize_runs"], _CS)
    + ["pipeline.checkpoint_bytes", "pipeline.errors"]
    + ["tracing.overhead_s", "tracing.overhead_share"]
)


def per_layer_unit(name: str) -> tuple[str, str]:
    """(unit, direction) of a per-layer metric, from its final component."""
    last = name.rsplit(".", 1)[1]
    if name.startswith("neuralkernel.conv_dx_useful_ratio"):
        return "ratio", "higher"
    if name.startswith("neuralkernel.conv_flop"):
        return "flop", "lower"
    if name.startswith("neuralkernel.im2col_bytes") or last.startswith("bytes") or last.endswith("_bytes"):
        return "B", "lower"
    if last in ("s", "self_s", "step_s", "overhead_s"):
        return "s", "lower"
    if last in ("eval_forwards_per_train_step", "overhead_share"):
        return "ratio", "lower"
    return "count", "lower"
