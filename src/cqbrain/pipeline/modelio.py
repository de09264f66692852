"""Model <-> checkpoint packing.

Parameters are stored as "param_<name>" tensors, and architecture
hyperparameters ride along as reserved "meta_*" tensors so a checkpoint is
self-describing. They are the config's own resolved fields, so a load builds
a config equal to the packed one, floats to f32 precision. The values no
model varies (the classifier's convs, the U-Net's single input and output
channel) are still written, so every checkpoint keeps its bytes, and a load
checks them against the constants. Any other checkpoint is `BadFormat`.
"""
from __future__ import annotations

import math

import numpy as np

from ..cqcnn import CONV1_OUT, CONV2_OUT, KERNEL, CqcnnConfig, CqcnnModel, HEAD_CLASSICAL, HEAD_QUANTUM
from ..diffusion import NoisePredictor, NoisePredictorConfig, NoiseSchedule, build_schedule
from ..errors import BadFormat, InvalidArgument
from ..rng import Rng
from ..skullnet import UNet, UNetConfig

_HEAD_CODES = {HEAD_QUANTUM: 0, HEAD_CLASSICAL: 1}
_HEAD_NAMES = {v: k for k, v in _HEAD_CODES.items()}
# kind -> the fixed architecture values its checkpoints carry as metadata
_FIXED = {0: {"conv1_out": CONV1_OUT, "conv2_out": CONV2_OUT, "kernel": KERNEL},
          1: {"in_channels": 1, "out_channels": 1}}


def _pack(model, kind: int, **meta) -> dict[str, np.ndarray]:
    out = {f"param_{k}": v for k, v in model.params().items()}
    meta = {"kind": kind, **meta, **_FIXED.get(kind, {})}
    out.update({f"meta_{k}": np.asarray(v, dtype=np.float32) for k, v in meta.items()})
    return out


def _meta(tensors: dict, key: str, integral: bool = True, scalar: bool = True):
    if key not in tensors:
        raise BadFormat(f"checkpoint missing {key!r}")
    values = tensors[key].reshape(-1).tolist()
    if scalar and len(values) != 1:
        raise BadFormat(f"checkpoint {key!r}: expected one value, got {len(values)}")
    for value in values:
        if not math.isfinite(value) or (integral and not value.is_integer()):
            raise BadFormat(f"checkpoint {key!r}: expected {'integers' if integral else 'finite values'}, "
                            f"got {value}")
    values = [int(v) for v in values] if integral else values
    return values[0] if scalar else tuple(values)


def _load(tensors: dict, kind: int, what: str, make_config, model_cls):
    """The `model_cls` that `make_config()` describes, holding the stored parameters.

    Sizes are checked before the model is built: no metadata makes a load allocate more than it read.
    """
    if _meta(tensors, "meta_kind") != kind:
        raise BadFormat(f"checkpoint does not hold a {what}")
    for key, value in _FIXED.get(kind, {}).items():
        stored = _meta(tensors, f"meta_{key}")
        if stored != value:
            raise BadFormat(f"checkpoint 'meta_{key}' is {stored}, every {what} has {value}")
    try:
        config = make_config()
        shapes = config.param_shapes()
    except InvalidArgument as exc:
        raise BadFormat(f"checkpoint metadata describes no {what}: {exc}") from exc
    stored = {k[len("param_"):]: v for k, v in tensors.items() if k.startswith("param_")}
    if stored.keys() != shapes.keys():
        raise BadFormat(f"checkpoint {what} parameters: missing {sorted(shapes.keys() - stored.keys())}, "
                        f"unknown {sorted(stored.keys() - shapes.keys())}")
    for name, shape in shapes.items():
        if stored[name].size != math.prod(shape):
            raise BadFormat(f"checkpoint 'param_{name}' holds {stored[name].size} values, "
                            f"the {what} needs {math.prod(shape)}")
    model = model_cls(config, Rng(0))
    for name, view in model.params().items():
        view[...] = stored[name].reshape(view.shape)
    return model


# -- classifier ----------------------------------------------------------

def pack_cqcnn(model: CqcnnModel) -> dict[str, np.ndarray]:
    cfg = model.config
    return _pack(model, 0, image_size=cfg.image_size, n_qubits=cfg.n_qubits, fc_width=cfg.fc_width,
                 head=_HEAD_CODES[cfg.head], dropout=cfg.dropout_rate)


def unpack_cqcnn(tensors: dict[str, np.ndarray]) -> CqcnnModel:
    return _load(tensors, 0, "classifier", lambda: CqcnnConfig(
        image_size=_meta(tensors, "meta_image_size"),
        dropout_rate=_meta(tensors, "meta_dropout", integral=False),
        n_qubits=_meta(tensors, "meta_n_qubits"),
        fc_width=_meta(tensors, "meta_fc_width"),
        head=_HEAD_NAMES.get(_meta(tensors, "meta_head")),  # an unknown code fails the head check
    ), CqcnnModel)


# -- segmenter -----------------------------------------------------------

def pack_unet(model: UNet) -> dict[str, np.ndarray]:
    cfg = model.config
    return _pack(model, 1, input_size=cfg.input_size, widths=cfg.widths)


def unpack_unet(tensors: dict[str, np.ndarray]) -> UNet:
    return _load(tensors, 1, "segmenter", lambda: UNetConfig(
        input_size=_meta(tensors, "meta_input_size"),
        widths=_meta(tensors, "meta_widths", scalar=False),
    ), UNet)


# -- denoiser ------------------------------------------------------------

def pack_predictor(model: NoisePredictor, schedule: NoiseSchedule) -> dict[str, np.ndarray]:
    cfg = model.config
    return _pack(model, 2, image_size=cfg.image_size, widths=cfg.widths, emb_dim=cfg.emb_dim,
                 T=schedule.T, beta_start=schedule.beta_start, beta_end=schedule.beta_end)


def unpack_predictor(tensors: dict[str, np.ndarray]) -> tuple[NoisePredictor, NoiseSchedule]:
    model = _load(tensors, 2, "denoiser", lambda: NoisePredictorConfig(
        image_size=_meta(tensors, "meta_image_size"),
        widths=_meta(tensors, "meta_widths", scalar=False),
        emb_dim=_meta(tensors, "meta_emb_dim"),
    ), NoisePredictor)
    try:
        schedule = build_schedule(_meta(tensors, "meta_T"), _meta(tensors, "meta_beta_start", integral=False),
                                  _meta(tensors, "meta_beta_end", integral=False))
    except InvalidArgument as exc:
        raise BadFormat(f"checkpoint metadata describes no noise schedule: {exc}") from exc
    return model, schedule
