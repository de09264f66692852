"""Span tracing of cqbrain from outside the package.

`Tracer.installed()` replaces the package's public functions with recording
wrappers at every module-level name they are looked up through (cqcnn holds
its own `conv2d`, pipeline.dataset its own `sample`, and so on), wraps the
listed methods on their classes, and restores every original on exit.
Spans stay in memory as [name, start, end, parent, command, error, attr]
lists; only calls made while `command` is set are recorded.

Naming: a neuralkernel kernel is attributed to the layer of the module that
looks it up (`cqcnn.conv2d` versus `skullnet.conv2d`); every other function
keeps its own layer (`volio.read_pgm`, `pipeline.load_checkpoint`).
Counts that need argument shapes (circuit simulations, convolution FLOPs,
im2col bytes, bytes through the format readers and writers) are taken at the
same call boundary.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

CONVS = ("conv2d", "conv2d_backward", "conv_transpose2x2", "conv_transpose2x2_backward")
KERNELS = CONVS + ("maxpool2x2", "maxpool2x2_backward", "dense", "dense_backward", "dropout", "relu")

# defining module -> functions traced under that module's layer at every binding
FUNCTIONS = {
    "cqbrain.qsim": ("pqc_forward", "pqc_backward"),
    "cqbrain.volio": ("parse_nifti", "extract_slice", "resize_bilinear", "read_pgm", "write_pgm"),
    "cqbrain.skullnet": ("segmentation_loss", "seg_scores"),
    "cqbrain.diffusion": ("train_step", "sample"),
    "cqbrain.pipeline.config": ("load_config",),
    "cqbrain.pipeline.dataset": ("load_split", "build_dataset"),
    "cqbrain.pipeline.checkpoint": ("save_checkpoint", "load_checkpoint"),
    "cqbrain.pipeline.report": ("write_csv", "summarize_runs"),
}

# (module, class, method) wrapped once on the class
METHODS = (
    ("cqbrain.cqcnn", "CqcnnModel", "forward"),
    ("cqbrain.cqcnn", "CqcnnModel", "backward"),
    ("cqbrain.skullnet", "UNet", "forward"),
    ("cqbrain.skullnet", "UNet", "backward"),
    ("cqbrain.diffusion", "NoisePredictor", "forward"),
    ("cqbrain.diffusion", "NoisePredictor", "backward"),
    ("cqbrain.rng", "Rng", "uniform"),
    ("cqbrain.rng", "Rng", "normal"),
    ("cqbrain.rng", "Rng", "permutation"),
    ("cqbrain.neuralkernel.optim", "Optimizer", "step"),
)

NAME, START, END, PARENT, COMMAND, ERROR, ATTR = range(7)


def layer_of(module: str) -> str:
    """`cqbrain.pipeline.dataset` -> `pipeline`, `cqbrain.cqcnn` -> `cqcnn`."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "cqbrain" else parts[0]


def parameterized_gates(n_qubits: int) -> int:
    """Phase, pairwise-phase and Ry gates of the n-qubit head circuit."""
    return 2 * n_qubits + n_qubits * (n_qubits - 1) // 2


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def conv_counts(kernel: str, args: tuple, kwargs: dict, result) -> tuple[float, float, float]:
    """(FLOPs, im2col bytes, input-gradient FLOPs) of one convolution kernel call.

    A multiply-add counts as two FLOPs. Backward kernels compute the weight
    gradient and, unless they return None for it, the input gradient, each
    costing as much as the forward pass.
    """
    backward = kernel.endswith("_backward")
    x = _arg(args, kwargs, 1 if backward else 0, "x")
    w = _arg(args, kwargs, 2 if backward else 1, "w")
    n = x.shape[0] if x.ndim == 4 else 1
    itemsize = 8 if x.dtype.name == "float64" else 4
    if kernel.startswith("conv2d"):
        c_out, c_in, k = w.shape[0], w.shape[1], w.shape[2]
        out = _arg(args, kwargs, 0, "dy") if backward else result
        taps, positions = c_in * k * k, out.shape[-2] * out.shape[-1]
        base = 2.0 * n * c_out * taps * positions
        cols = float(n * taps * positions * itemsize)
    else:  # 2x2 stride-2 transposed conv: every input pixel feeds four outputs
        c_in, c_out = w.shape[0], w.shape[1]
        base = 2.0 * n * c_in * c_out * 4 * x.shape[-2] * x.shape[-1]
        cols = 0.0
    if not backward:
        return base, cols, 0.0
    dx = base if result[0] is not None else 0.0
    return base + dx, cols, dx


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, reach = 0.0, lo
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append((hi - lo) - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.command: str | None = None
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, label, attr=None, count=None):
        """Recording wrapper; `label` is a name or a function of the caller's module."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.command is None:
                return fn(*args, **kwargs)
            name = label if isinstance(label, str) else label(sys._getframe(1).f_globals.get("__name__", ""), args, kwargs)
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._open[-1] if tracer._open else -1, tracer.command, False,
                    attr(args, kwargs) if attr else None]
            tracer.spans.append(span)
            tracer._open.append(idx)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[END] = perf_counter()
                span[ERROR] = True
                tracer._open.pop()
                raise
            span[END] = perf_counter()
            tracer._open.pop()
            if count is not None:
                count(tracer.counters, name, args, kwargs, out)
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced binding for the duration of the block."""
        importlib.import_module("cqbrain.pipeline.cli")  # loads every layer
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "cqbrain" or name.startswith("cqbrain.")}
        try:
            self._install(modules)
            yield self
        finally:
            while self._restore:
                owner, attr, original = self._restore.pop()
                setattr(owner, attr, original)

    def _bindings(self, modules: dict, fn) -> list[tuple[str, object, str]]:
        return [(name, mod, attr) for name, mod in sorted(modules.items())
                for attr, value in list(vars(mod).items()) if value is fn]

    def _install(self, modules: dict) -> None:
        ops = modules["cqbrain.neuralkernel.ops"]
        for kernel in KERNELS:
            fn = getattr(ops, kernel)
            for mod_name, mod, attr in self._bindings(modules, fn):
                layer = layer_of(mod_name)
                if layer == "neuralkernel":
                    continue  # definitions and re-exports, not call sites
                is_conv = kernel in CONVS
                self._set(mod, attr, self._wrap(
                    fn, f"{layer}.{kernel}",
                    attr=_conv_input_size(kernel) if is_conv else None,
                    count=_count_conv(kernel) if is_conv else None))
        for mod_name, names in FUNCTIONS.items():
            for fname in names:
                fn = getattr(modules[mod_name], fname)
                label = f"{layer_of(mod_name)}.{fname}"
                for _, mod, attr in self._bindings(modules, fn):
                    self._set(mod, attr, self._wrap(fn, label, count=_COUNTS.get(label)))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            fn = cls.__dict__[meth]
            label, attr = f"{layer_of(mod_name)}.{cls_name}.{meth}", None
            if cls_name == "CqcnnModel" and meth == "forward":
                label = _forward_mode
            elif cls_name == "Optimizer":
                label = _optim_step
            elif cls_name == "UNet":
                attr = _unet_size
            self._set(cls, meth, self._wrap(fn, label, attr=attr))


def _forward_mode(caller: str, args: tuple, kwargs: dict) -> str:
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "eval")
    return f"cqcnn.CqcnnModel.forward.{mode}"


def _optim_step(caller: str, args: tuple, kwargs: dict) -> str:
    return f"{layer_of(caller)}.optim_step"


def _unet_size(args: tuple, kwargs: dict) -> int:
    return args[0].config.input_size


def _conv_input_size(kernel: str):
    backward = kernel.endswith("_backward")

    def attr(args: tuple, kwargs: dict) -> int:
        return _arg(args, kwargs, 1 if backward else 0, "x").shape[-2]
    return attr


def _count_conv(kernel: str):
    def count(counters, name, args, kwargs, out) -> None:
        caller = name.split(".", 1)[0]
        flop, cols, dx = conv_counts(kernel, args, kwargs, out)
        counters[f"neuralkernel.conv_flop.{caller}"] += flop
        counters[f"neuralkernel.im2col_bytes.{caller}"] += cols
        if dx:
            x = _arg(args, kwargs, 1, "x")
            counters[f"neuralkernel.dx_flop.{caller}"] += dx
            # the only one-channel convolution input in either model is the image itself
            if x.shape[-3] > 1:
                counters[f"neuralkernel.dx_useful_flop.{caller}"] += dx
    return count


def _count_circuits(counters, name, args, kwargs, out) -> None:
    n = len(_arg(args, kwargs, 0, "x"))
    counters["qsim.circuits"] += 1 if name.endswith("forward") else 2 * parameterized_gates(n)


def _count_bytes_in(counters, name, args, kwargs, out) -> None:
    counters["volio.bytes_in"] += len(_arg(args, kwargs, 0, "data"))


def _count_bytes_out(counters, name, args, kwargs, out) -> None:
    counters["volio.bytes_out"] += len(out)


def _count_saved(counters, name, args, kwargs, out) -> None:
    counters["pipeline.checkpoint_bytes"] += len(out)


def _count_loaded(counters, name, args, kwargs, out) -> None:
    counters["pipeline.checkpoint_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


_COUNTS = {
    "qsim.pqc_forward": _count_circuits,
    "qsim.pqc_backward": _count_circuits,
    "volio.parse_nifti": _count_bytes_in,
    "volio.read_pgm": _count_bytes_in,
    "volio.write_pgm": _count_bytes_out,
    "pipeline.save_checkpoint": _count_saved,
    "pipeline.load_checkpoint": _count_loaded,
}


def layer_metrics(spans: list[list], counters: dict[str, float]) -> dict[str, float]:
    """Every per-layer statistic the spans and counters support, by metric name."""
    out: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for span, self_s in zip(spans, selfs):
        name = span[NAME]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += span[END] - span[START]
        out[f"{name}.self_s"] += self_s
        if span[ERROR]:
            out[f"{name.split('.', 1)[0]}.errors"] += 1
            if name.split(".", 1)[1] in KERNELS:
                out["neuralkernel.errors"] += 1
    for span in spans:
        name = span[NAME]
        if name.startswith("skullnet.") and name.split(".", 1)[1] in CONVS:
            size = _ancestor_attr(spans, span, "skullnet.UNet.")
            if size:
                out[f"skullnet.level{round(math.log2(size / span[ATTR]))}.s"] += span[END] - span[START]
    steps, sample_s = 0, 0.0
    for span in spans:
        if span[NAME] == "diffusion.sample":
            sample_s += span[END] - span[START]
        elif span[NAME] == "diffusion.NoisePredictor.forward" and _ancestor_attr(spans, span, "diffusion.sample") is not None:
            steps += 1
    out["diffusion.step_s"] = sample_s / steps if steps else 0.0
    # command ids are "<round>:<tag>"; train commands are tagged "train.<head>"
    train_cmds = [s for s in spans if s[COMMAND].split(":", 1)[1].startswith("train.")]
    backwards = sum(1 for s in train_cmds if s[NAME] == "cqcnn.CqcnnModel.backward")
    evals = sum(1 for s in train_cmds if s[NAME] == "cqcnn.CqcnnModel.forward.eval")
    out["cqcnn.eval_forwards_per_train_step"] = evals / backwards if backwards else 0.0
    out.update({k: v for k, v in counters.items() if not k.startswith("neuralkernel.dx")})
    for caller in ("cqcnn", "skullnet"):
        computed = counters.get(f"neuralkernel.dx_flop.{caller}", 0.0)
        useful = counters.get(f"neuralkernel.dx_useful_flop.{caller}", 0.0)
        out[f"neuralkernel.conv_dx_useful_ratio.{caller}"] = useful / computed if computed else 0.0
    return dict(out)


def _ancestor_attr(spans: list[list], span: list, prefix: str):
    """ATTR of the nearest enclosing span whose name starts with prefix (True if it has none)."""
    parent = span[PARENT]
    while parent >= 0:
        anc = spans[parent]
        if anc[NAME].startswith(prefix):
            return anc[ATTR] if anc[ATTR] is not None else True
        parent = anc[PARENT]
    return None
