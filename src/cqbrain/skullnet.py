"""Encoder-decoder segmentation network and skull-stripping helpers.

The UNet class is the shared encoder/bottleneck/decoder/skip machinery:
each level applies two 3x3 same-padded conv+ReLU stages, 2x2 max-pooling
between encoder levels, 2x2 stride-2 transposed-conv upsampling in the
decoder, and channel concatenation with the mirrored encoder feature map.
A 1x1 conv produces the output logits. An optional per-channel vector can
be broadcast-added at the bottleneck (the denoiser injects its timestep
embedding there).

Training for brain masks minimizes binary cross-entropy plus (1 - soft
Dice); predictions are binarized at 0.5 before scoring or mask application.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, ShapeMismatch
from .neuralkernel import (
    Optimizer,
    conv2d,
    conv2d_backward,
    conv_transpose2x2,
    conv_transpose2x2_backward,
    dice_iou,
    glorot,
    maxpool2x2,
    maxpool2x2_backward,
    relu,
    relu_backward,
)
from .rng import Rng

FULL_WIDTHS = (32, 64, 128, 256, 512)


@dataclass
class UNetConfig:
    input_size: int = 128
    widths: tuple[int, ...] = FULL_WIDTHS
    width_scale: float = 1.0
    in_channels: int = 1
    out_channels: int = 1

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ShapeMismatch("need at least two levels (encoder + bottleneck)")
        down = 2 ** (len(self.widths) - 1)
        if self.input_size % down or self.input_size < down:
            raise ShapeMismatch(f"input_size {self.input_size} must be a multiple of {down}")

    @property
    def depth(self) -> int:
        return len(self.widths)

    @property
    def scaled_widths(self) -> tuple[int, ...]:
        return tuple(max(1, math.ceil(w * self.width_scale)) for w in self.widths)

    @property
    def bottleneck_size(self) -> int:
        return self.input_size // 2 ** (self.depth - 1)

    @property
    def bottleneck_channels(self) -> int:
        return self.scaled_widths[-1]


class UNet:
    """Configurable-depth U-Net with explicit hand-written backprop."""

    def __init__(self, config: UNetConfig, rng: Rng | None = None):
        self.config = config
        rng = rng if rng is not None else Rng(0)
        w = config.scaled_widths
        self.params: dict[str, np.ndarray] = {}

        def conv_init(name: str, c_out: int, c_in: int, k: int) -> None:
            self.params[f"{name}_w"] = glorot(rng.derive(f"init:{name}"), (c_out, c_in, k, k),
                                               c_in * k * k, c_out * k * k)
            self.params[f"{name}_b"] = np.full(c_out, 0.01, np.float32)

        prev = config.in_channels
        for lvl, width in enumerate(w):
            conv_init(f"enc{lvl}_c1", width, prev, 3)
            conv_init(f"enc{lvl}_c2", width, width, 3)
            prev = width
        for lvl in range(config.depth - 2, -1, -1):
            name = f"up{lvl}"
            self.params[f"{name}_w"] = glorot(rng.derive(f"init:{name}"), (w[lvl + 1], w[lvl], 2, 2),
                                               w[lvl + 1] * 4, w[lvl] * 4)
            self.params[f"{name}_b"] = np.full(w[lvl], 0.01, np.float32)
            conv_init(f"dec{lvl}_c1", w[lvl], 2 * w[lvl], 3)
            conv_init(f"dec{lvl}_c2", w[lvl], w[lvl], 3)
        conv_init("head", config.out_channels, w[0], 1)
        self._cache: dict | None = None

    def param_count(self) -> int:
        return sum(int(np.prod(p.shape)) for p in self.params.values())

    def _conv_block(self, name: str, x: np.ndarray, cache: dict) -> np.ndarray:
        for stage in ("c1", "c2"):
            key = f"{name}_{stage}"
            z = conv2d(x, self.params[f"{key}_w"], self.params[f"{key}_b"], padding="same")
            cache[f"{key}_in"] = x
            cache[f"{key}_z"] = z
            x = relu(z)
        return x

    def _conv_block_backward(self, name: str, dy: np.ndarray, cache: dict,
                             grads: dict[str, np.ndarray]) -> np.ndarray:
        for stage in ("c2", "c1"):
            key = f"{name}_{stage}"
            dz = relu_backward(dy, cache[f"{key}_z"])
            dy, grads[f"{key}_w"], grads[f"{key}_b"] = conv2d_backward(
                dz, cache[f"{key}_in"], self.params[f"{key}_w"], padding="same")
        return dy

    def forward(self, x: np.ndarray, bottleneck_add: np.ndarray | None = None) -> np.ndarray:
        """Logits with the input's spatial shape; x is (N, C, H, W)."""
        cfg = self.config
        if x.ndim != 4 or x.shape[1] != cfg.in_channels or x.shape[2:] != (cfg.input_size, cfg.input_size):
            raise ShapeMismatch(f"expected (N, {cfg.in_channels}, {cfg.input_size}, {cfg.input_size}), got {x.shape}")
        cache: dict = {}
        skips: list[np.ndarray] = []
        for lvl in range(cfg.depth):
            x = self._conv_block(f"enc{lvl}", x, cache)
            if lvl < cfg.depth - 1:
                skips.append(x)
                cache[f"pool{lvl}_in"] = x
                x = maxpool2x2(x)

        if bottleneck_add is not None:
            add = np.asarray(bottleneck_add)
            add = add.astype(np.float64 if add.dtype == np.float64 else np.float32)
            if add.ndim == 1:
                add = np.tile(add, (x.shape[0], 1))
            if add.shape != (x.shape[0], cfg.bottleneck_channels):
                raise ShapeMismatch(f"bottleneck vector must be (N, {cfg.bottleneck_channels}), got {add.shape}")
            x = x + add[:, :, None, None]
        cache["used_bottleneck_add"] = bottleneck_add is not None

        for lvl in range(cfg.depth - 2, -1, -1):
            up = conv_transpose2x2(x, self.params[f"up{lvl}_w"], self.params[f"up{lvl}_b"])
            skip = skips[lvl]
            if up.shape[2:] != skip.shape[2:]:
                raise ShapeMismatch(f"decoder level {lvl}: upsampled {up.shape} vs skip {skip.shape}")
            cache[f"up{lvl}_in"] = x
            joined = np.concatenate([up, skip], axis=1)
            cache[f"dec{lvl}_join"] = joined.shape[1] // 2
            x = self._conv_block(f"dec{lvl}", joined, cache)

        logits = conv2d(x, self.params["head_w"], self.params["head_b"])
        cache["head_in"] = x
        self._cache = cache
        return logits

    def backward(self, dlogits: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray | None]:
        """Returns (parameter grads, input grad, bottleneck-vector grad or None)."""
        if self._cache is None:
            raise ShapeMismatch("backward called before forward")
        cfg = self.config
        cache = self._cache
        grads: dict[str, np.ndarray] = {}

        dy, grads["head_w"], grads["head_b"] = conv2d_backward(
            dlogits, cache["head_in"], self.params["head_w"])

        for lvl in range(cfg.depth - 1):
            dy = self._conv_block_backward(f"dec{lvl}", dy, cache, grads)
            half = cache[f"dec{lvl}_join"]
            dup, dskip = dy[:, :half], dy[:, half:]
            dx_level, grads[f"up{lvl}_w"], grads[f"up{lvl}_b"] = conv_transpose2x2_backward(
                dup, cache[f"up{lvl}_in"], self.params[f"up{lvl}_w"])
            cache[f"skip{lvl}_grad"] = dskip
            dy = dx_level

        d_bottleneck = dy.sum(axis=(2, 3)) if cache["used_bottleneck_add"] else None

        for lvl in range(cfg.depth - 1, -1, -1):
            if lvl < cfg.depth - 1:
                dy = maxpool2x2_backward(dy, cache[f"pool{lvl}_in"])
                dy = dy + cache[f"skip{lvl}_grad"]
            dy = self._conv_block_backward(f"enc{lvl}", dy, cache, grads)
        return grads, dy, d_bottleneck


@dataclass
class MaskPair:
    """One training example: grayscale image plus binary brain mask."""

    image: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.image = np.asarray(self.image, dtype=np.float32)
        self.mask = (np.asarray(self.mask, dtype=np.float32) >= 0.5).astype(np.float32)
        if self.image.shape != self.mask.shape:
            raise ShapeMismatch(f"image {self.image.shape} vs mask {self.mask.shape}")


def unet_forward(model: UNet, img: np.ndarray) -> np.ndarray:
    """Segmentation logits for one (H, W) image."""
    img = np.asarray(img, dtype=np.float32)
    if img.ndim != 2:
        raise ShapeMismatch(f"expected a 2D image, got shape {img.shape}")
    return model.forward(img[None, None])[0, 0]


def soft_dice(probs: np.ndarray, mask: np.ndarray, smooth: float = 1.0) -> float:
    """Differentiable overlap score in [0, 1]."""
    p = np.asarray(probs, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    return float((2.0 * (p * m).sum() + smooth) / (p.sum() + m.sum() + smooth))


def segmentation_loss(logits: np.ndarray, mask: np.ndarray,
                      smooth: float = 1.0) -> tuple[float, np.ndarray]:
    """Per-batch BCE + (1 - soft Dice); returns (loss, dloss/dlogits).

    Dice is computed per item and averaged, matching the per-image
    progress curves logged during training.
    """
    z = np.asarray(logits, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    if z.shape != m.shape:
        raise ShapeMismatch(f"logits {z.shape} vs mask {m.shape}")
    single = z.ndim == 2
    if single:
        z, m = z[None], m[None]
    n = z.shape[0]
    npix = z[0].size

    p = 1.0 / (1.0 + np.exp(-np.abs(z)))
    p = np.where(z >= 0, p, 1.0 - p)
    bce = float(np.mean(np.maximum(z, 0.0) - z * m + np.log1p(np.exp(-np.abs(z)))))
    dz_bce = (p - m) / (npix * n)

    loss_dice = 0.0
    dp_dice = np.zeros_like(p)
    for i in range(n):
        a = 2.0 * (p[i] * m[i]).sum() + smooth
        b = p[i].sum() + m[i].sum() + smooth
        loss_dice += 1.0 - a / b
        dp_dice[i] = -(2.0 * m[i] * b - a) / (b * b)
    loss_dice /= n
    dz_dice = dp_dice / n * p * (1.0 - p)

    loss = bce + loss_dice
    dz = (dz_bce + dz_dice).astype(np.float32)
    return loss, (dz[0] if single else dz)


@dataclass
class SegEpochReport:
    epoch: int
    loss: float
    dice: float
    iou: float
    wall_time_s: float


def _stack_pairs(pairs: list[MaskPair], idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    imgs = np.stack([pairs[int(i)].image for i in idx])[:, None]
    masks = np.stack([pairs[int(i)].mask for i in idx])[:, None]
    return imgs, masks


def seg_scores(model: UNet, pairs: list[MaskPair], batch_size: int = 8) -> tuple[float, float]:
    """Mean per-image Dice and IoU of binarized predictions."""
    dices, ious = [], []
    for start in range(0, len(pairs), batch_size):
        idx = np.arange(start, min(start + batch_size, len(pairs)))
        imgs, masks = _stack_pairs(pairs, idx)
        logits = model.forward(imgs)
        preds = logits >= 0.0  # sigmoid(z) >= 0.5 iff z >= 0
        for i in range(len(idx)):
            d, j = dice_iou(preds[i, 0].astype(np.float32), masks[i, 0])
            dices.append(d)
            ious.append(j)
    return float(np.mean(dices)), float(np.mean(ious))


def train_segmenter(model: UNet, pairs: list[MaskPair], epochs: int, optimizer: Optimizer,
                    seed: int, batch_size: int = 8,
                    on_epoch=None) -> list[SegEpochReport]:
    """Seeded mini-batch training; logs per-epoch loss and train Dice/IoU."""
    if not pairs:
        raise EmptyDataset("no training pairs")
    reports = []
    for epoch in range(epochs):
        start = time.perf_counter()
        order = Rng(seed).derive(f"seg-epoch:{epoch}").permutation(len(pairs))
        total_loss = 0.0
        batches = 0
        for b0 in range(0, len(order), batch_size):
            idx = order[b0 : b0 + batch_size]
            imgs, masks = _stack_pairs(pairs, idx)
            logits = model.forward(imgs)
            loss, dz = segmentation_loss(logits, masks)
            grads, _, _ = model.backward(dz)
            optimizer.step(model.params, grads)
            total_loss += loss
            batches += 1
        dice, iou = seg_scores(model, pairs, batch_size)
        report = SegEpochReport(epoch, total_loss / batches, dice, iou, time.perf_counter() - start)
        reports.append(report)
        if on_epoch is not None and on_epoch(report):
            break
    return reports


def segment_apply(model: UNet, img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(binary mask, masked image) for one slice."""
    img = np.asarray(img, dtype=np.float32)
    logits = unet_forward(model, img)
    mask = (logits >= 0.0).astype(np.float32)
    return mask, img * mask
