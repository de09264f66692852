"""Encoder-decoder segmentation network and skull-stripping helpers.

The UNet class is the shared encoder/bottleneck/decoder/skip machinery:
each level applies two 3x3 same-padded conv+ReLU stages, 2x2 max-pooling
between encoder levels, 2x2 stride-2 transposed-conv upsampling in the
decoder, and channel concatenation with the mirrored encoder feature map.
It maps one grayscale slice to one map of logits, which a 1x1 conv makes:
SkullNet and the denoiser both use it so. An optional per-channel vector
can be broadcast-added at the bottleneck (the denoiser injects its
timestep embedding there).

Training for brain masks minimizes binary cross-entropy plus (1 - soft
Dice); predictions are binarized at 0.5 before scoring or mask application.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import Diverged, InvalidArgument
from .neuralkernel import (
    Optimizer,
    Params,
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
    run_epoch,
)
from .rng import Rng

FULL_WIDTHS = (32, 64, 128, 256, 512)

# Images per U-Net call in `segment_many`; training already runs batches of 8.
APPLY_CHUNK = 8

# Added to the soft Dice's numerator and denominator: an empty mask predicted empty scores 1.
DICE_SMOOTH = 1.0


@dataclass
class UNetConfig:
    """`widths` as built: a constructor `width_scale` scales them once (rounding up, at least 1)."""

    input_size: int = 128
    widths: tuple[int, ...] = FULL_WIDTHS
    width_scale: InitVar[float] = 1.0

    def __post_init__(self, width_scale: float):
        if len(self.widths) < 2:
            raise InvalidArgument("need at least two levels (encoder + bottleneck)")
        if min(self.widths) < 1:
            raise InvalidArgument(f"channel counts must be >= 1, got widths {tuple(self.widths)}")
        self.widths = tuple(max(1, math.ceil(w * width_scale)) for w in self.widths)
        down = 2 ** (len(self.widths) - 1)
        if self.input_size % down or self.input_size < down:
            raise InvalidArgument(f"input_size {self.input_size} must be a multiple of {down}")

    @property
    def depth(self) -> int:
        return len(self.widths)

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every trainable tensor, in vector order."""
        w = self.widths
        shapes: dict[str, tuple[int, ...]] = {}

        def conv(name: str, c_out: int, c_in: int, k: int) -> None:
            shapes[f"{name}_w"], shapes[f"{name}_b"] = (c_out, c_in, k, k), (c_out,)

        for lvl, (c_in, width) in enumerate(zip((1, *w), w)):
            conv(f"enc{lvl}_c1", width, c_in, 3)
            conv(f"enc{lvl}_c2", width, width, 3)
        for lvl in range(self.depth - 2, -1, -1):
            shapes[f"up{lvl}_w"], shapes[f"up{lvl}_b"] = (w[lvl + 1], w[lvl], 2, 2), (w[lvl],)
            conv(f"dec{lvl}_c1", w[lvl], 2 * w[lvl], 3)
            conv(f"dec{lvl}_c2", w[lvl], w[lvl], 3)
        conv("head", 1, w[0], 1)
        return shapes


# The InitVar's default would stay on the class and answer `config.width_scale` with 1.0
# whatever scale built the widths; `__init__` keeps the default in its own signature.
del UNetConfig.width_scale


class UNet:
    """Configurable-depth U-Net with explicit hand-written backprop.

    A `layout` adds an owner's tensors (the denoiser's) to `config.param_shapes()` in one vector.
    """

    def __init__(self, config: UNetConfig, rng: Rng, layout: dict | None = None):
        self.config = config
        self._params = Params(layout or config.param_shapes())
        for name in config.param_shapes():
            if name.endswith("_w"):
                glorot(rng.derive(f"init:{name[:-2]}"), self._params[name])
            else:
                self._params[name].fill(0.01)
        self._cache: dict | None = None

    def params(self) -> Params:
        return self._params

    def _conv_block(self, name: str, x: np.ndarray, cache: dict) -> np.ndarray:
        for stage in ("c1", "c2"):
            key = f"{name}_{stage}"
            z = conv2d(x, self._params[f"{key}_w"], self._params[f"{key}_b"], padding="same")
            cache[f"{key}_in"] = x
            cache[f"{key}_z"] = z
            x = relu(z)
        return x

    def _conv_block_backward(self, name: str, dy: np.ndarray, cache: dict,
                             grads: Params, input_grad: bool) -> np.ndarray | None:
        """Gradient of the block's input; None (not computed) when input_grad is False."""
        for stage in ("c2", "c1"):
            key = f"{name}_{stage}"
            dz = relu_backward(dy, cache[f"{key}_z"])
            dy, grads[f"{key}_w"], grads[f"{key}_b"] = conv2d_backward(
                dz, cache[f"{key}_in"], self._params[f"{key}_w"], padding="same",
                input_grad=input_grad or stage == "c2")
        return dy

    def forward(self, x: np.ndarray, bottleneck_add: np.ndarray | None = None) -> np.ndarray:
        """Logits (N, 1, H, W) for x (N, 1, H, W)."""
        cfg = self.config
        if x.ndim != 4 or x.shape[1:] != (1, cfg.input_size, cfg.input_size):
            raise InvalidArgument(f"expected (N, 1, {cfg.input_size}, {cfg.input_size}), got {x.shape}")
        cache: dict = {}
        for lvl in range(cfg.depth):
            x = self._conv_block(f"enc{lvl}", x, cache)
            if lvl < cfg.depth - 1:
                cache[f"pool{lvl}_in"] = x  # also the decoder's skip input at this level
                x = maxpool2x2(x)

        if bottleneck_add is not None:
            add = np.asarray(bottleneck_add)
            add = add.astype(np.float64 if add.dtype == np.float64 else np.float32)
            if add.shape != (x.shape[0], cfg.widths[-1]):
                raise InvalidArgument(f"bottleneck vector must be (N, {cfg.widths[-1]}), got {add.shape}")
            x = x + add[:, :, None, None]
        cache["used_bottleneck_add"] = bottleneck_add is not None

        for lvl in range(cfg.depth - 2, -1, -1):
            up = conv_transpose2x2(x, self._params[f"up{lvl}_w"], self._params[f"up{lvl}_b"])
            cache[f"up{lvl}_in"] = x
            x = self._conv_block(f"dec{lvl}", np.concatenate([up, cache[f"pool{lvl}_in"]], axis=1), cache)

        logits = conv2d(x, self._params["head_w"], self._params["head_b"])
        cache["head_in"] = x
        self._cache = cache
        return logits

    def backward(self, dlogits: np.ndarray) -> tuple[Params, np.ndarray | None]:
        """Returns (parameter grads, bottleneck-vector grad or None).

        Parameter grads have the layout of `params()`, an owner's entries zero.
        The first conv skips its input gradient: the input is data, which no
        caller differentiates.
        """
        if self._cache is None:
            raise InvalidArgument("backward called before forward")
        cfg = self.config
        cache = self._cache
        grads = self._params.zeros_like()

        dy, grads["head_w"], grads["head_b"] = conv2d_backward(
            dlogits, cache["head_in"], self._params["head_w"])

        skip_grads = []  # level lvl's decoder-input gradient past its upsampled channels
        for lvl in range(cfg.depth - 1):
            dy = self._conv_block_backward(f"dec{lvl}", dy, cache, grads, input_grad=True)
            up_channels = cfg.widths[lvl]
            skip_grads.append(dy[:, up_channels:])
            dy, grads[f"up{lvl}_w"], grads[f"up{lvl}_b"] = conv_transpose2x2_backward(
                dy[:, :up_channels], cache[f"up{lvl}_in"], self._params[f"up{lvl}_w"])

        d_bottleneck = dy.sum(axis=(2, 3)) if cache["used_bottleneck_add"] else None

        for lvl in range(cfg.depth - 1, -1, -1):
            if lvl < cfg.depth - 1:
                dy = maxpool2x2_backward(dy, cache[f"pool{lvl}_in"])
                dy = dy + skip_grads[lvl]
            dy = self._conv_block_backward(f"enc{lvl}", dy, cache, grads, input_grad=lvl > 0)
        return grads, d_bottleneck


@dataclass
class MaskPair:
    """One training example: grayscale image plus binary brain mask."""

    image: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.image = np.asarray(self.image, dtype=np.float32)
        self.mask = (np.asarray(self.mask, dtype=np.float32) >= 0.5).astype(np.float32)
        if self.image.shape != self.mask.shape:
            raise InvalidArgument(f"image {self.image.shape} vs mask {self.mask.shape}")


def segmentation_loss(logits: np.ndarray, mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Per-batch BCE + (1 - soft Dice) over (N, ...) logits; returns (loss, dloss/dlogits).

    Dice is computed per item and averaged, matching the per-image
    progress curves logged during training.
    """
    z = np.asarray(logits, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    if z.shape != m.shape:
        raise InvalidArgument(f"logits {z.shape} vs mask {m.shape}")
    n = z.shape[0]
    npix = z[0].size

    e = np.exp(-np.abs(z))
    p = 1.0 / (1.0 + e)
    p = np.where(z >= 0, p, 1.0 - p)
    bce = float(np.mean(np.maximum(z, 0.0) - z * m + np.log1p(e)))
    dz_bce = (p - m) / (npix * n)

    items = (n,) + (1,) * (z.ndim - 1)  # a per-item value against (N, ...) arrays
    a = 2.0 * (p * m).reshape(n, -1).sum(axis=1) + DICE_SMOOTH
    b = p.reshape(n, -1).sum(axis=1) + m.reshape(n, -1).sum(axis=1) + DICE_SMOOTH
    loss_dice = sum(1.0 - a / b) / n  # Python's sum adds in item order; np.sum pairs terms from 8 items up
    dp_dice = -(2.0 * m * b.reshape(items) - a.reshape(items)) / (b * b).reshape(items)
    dz_dice = dp_dice / n * p * (1.0 - p)

    return bce + loss_dice, (dz_bce + dz_dice).astype(np.float32)


@dataclass
class SegEpochReport:
    epoch: int
    loss: float
    dice: float
    iou: float
    wall_time_s: float  # the training pass alone, without the Dice/IoU scoring


def seg_scores(model: UNet, pairs: list[MaskPair]) -> tuple[float, float]:
    """Mean per-image Dice and IoU of the masks `segment_many` predicts."""
    masks = segment_many(model, [pair.image for pair in pairs])
    dices, ious = zip(*(dice_iou(pred, pair.mask) for (pred, _), pair in zip(masks, pairs)))
    return float(np.mean(dices)), float(np.mean(ious))


def train_segmenter(model: UNet, pairs: list[MaskPair], epochs: int, optimizer: Optimizer,
                    seed: int, batch_size: int = 8) -> list[SegEpochReport]:
    """Seeded mini-batch training; logs per-epoch loss and train Dice/IoU."""

    def step(indices: np.ndarray, _b0: int) -> float:
        imgs = np.stack([pairs[int(i)].image for i in indices])[:, None]
        masks = np.stack([pairs[int(i)].mask for i in indices])[:, None]
        loss, dz = segmentation_loss(model.forward(imgs), masks)
        if math.isfinite(loss):  # a diverged batch leaves the parameters as they were
            grads, _ = model.backward(dz)
            optimizer.step(model.params(), grads)
        return loss

    reports = []
    for epoch in range(epochs):
        loss, seconds = run_epoch(Rng(seed).derive(f"seg-epoch:{epoch}"), len(pairs), batch_size, epoch, step)
        reports.append(SegEpochReport(epoch, loss, *seg_scores(model, pairs), seconds))
    return reports


def segment_many(model: UNet, images: Sequence[np.ndarray]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(binary mask, masked image) for each (H, W) image in order, APPLY_CHUNK images per U-Net call.

    The conv kernels compute each batch item on its own, so every mask and
    masked image equals its one-image result bit for bit. An image whose
    logits are not finite raises Diverged naming its index.
    """
    for start in range(0, len(images), APPLY_CHUNK):
        chunk = np.stack([np.asarray(img, dtype=np.float32) for img in images[start : start + APPLY_CHUNK]])
        logits = model.forward(chunk[:, None])
        finite = np.isfinite(logits).all(axis=(1, 2, 3))
        if not finite.all():
            raise Diverged(f"segmentation diverged at image {start + int(finite.argmin())}: "
                           f"its logits are not finite")
        for img, z in zip(chunk, logits[:, 0]):
            mask = (z >= 0.0).astype(np.float32)
            yield mask, img * mask
