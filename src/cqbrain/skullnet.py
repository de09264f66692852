"""Encoder-decoder segmentation network and skull-stripping helpers.

The UNet class is the shared encoder/bottleneck/decoder/skip machinery:
each level applies two 3x3 same-padded conv+ReLU stages, 2x2 max-pooling
between encoder levels, 2x2 stride-2 transposed-conv upsampling in the
decoder, and channel concatenation with the mirrored encoder feature map.
It maps one grayscale slice to one map of logits, which a 1x1 conv makes:
SkullNet and the denoiser both use it so. An optional per-channel vector
can be broadcast-added at the bottleneck (the denoiser injects its
timestep embedding there).

Activation lifetime: `forward` keeps each activation once, for `backward`:
the input, each conv's ReLU output, each pooled map, the bottleneck and
each level's decoder input. The ReLU runs in place over its conv output,
and `relu_backward` reads y > 0, the same mask as z > 0 (NaN and +-0
included). A level's decoder input is one (N, 2C, H, W) buffer: the
encoder's last ReLU at that level writes its skip into the second half
and the transposed conv fills the first, so no concatenation copies the
skip, and the cached skip is a view into that buffer. `backward` drops each
entry once the gradients that read it are formed and ends holding nothing,
so a second `backward` needs a new `forward`. Inference (`segment_many`,
the denoiser's sampling) runs `forward(..., keep=False)`: the same code,
which keeps no cache and leaves a kept one as it is.

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

    def _conv(self, key: str, x: np.ndarray, cache: dict | None, out: np.ndarray | None = None) -> np.ndarray:
        """ReLU of conv `key` over x, written over the conv output or into `out`; kept as cache[key]."""
        z = conv2d(x, self._params[f"{key}_w"], self._params[f"{key}_b"], padding="same")
        y = relu(z, out=z if out is None else out)
        if cache is not None:
            cache[key] = y
        return y

    def _upsample(self, lvl: int, x: np.ndarray, cat: np.ndarray, cache: dict | None) -> np.ndarray:
        """cat (N, 2C, H, W), its second half the skip, with level lvl's transposed conv of x in the first.

        Kept as cache[f"cat{lvl}"].
        """
        up = conv_transpose2x2(x, self._params[f"up{lvl}_w"], self._params[f"up{lvl}_b"])
        if up.dtype == cat.dtype:
            cat[:, : up.shape[1]] = up
        else:  # a float64 bottleneck vector widened the maps past the float32 skip
            cat = np.concatenate([up, cat[:, up.shape[1] :]], axis=1)
        if cache is not None:
            cache[f"cat{lvl}"] = cat
        return cat

    def forward(self, x: np.ndarray, bottleneck_add: np.ndarray | None = None, keep: bool = True) -> np.ndarray:
        """Logits (N, 1, H, W) for x (N, 1, H, W).

        keep=False (inference) runs the same code without a cache and leaves a kept one as it is.
        """
        cfg = self.config
        if x.ndim != 4 or x.shape[1:] != (1, cfg.input_size, cfg.input_size):
            raise InvalidArgument(f"expected (N, 1, {cfg.input_size}, {cfg.input_size}), got {x.shape}")
        if bottleneck_add is not None:
            add = np.asarray(bottleneck_add)
            add = add.astype(np.float64 if add.dtype == np.float64 else np.float32)
            if add.shape != (x.shape[0], cfg.widths[-1]):
                raise InvalidArgument(f"bottleneck vector must be (N, {cfg.widths[-1]}), got {add.shape}")
        cache = None
        if keep:
            self._cache = None  # superseded: it goes before this forward builds its own
            cache = {"x": x, "add": bottleneck_add is not None}
        top = cfg.depth - 1
        cats = []  # level lvl's decoder input: the transposed conv's channels, then the skip's
        for lvl in range(top):
            x = self._conv(f"enc{lvl}_c1", x, cache)
            n, c, h, w = x.shape
            cats.append(np.empty((n, 2 * c, h, w), np.result_type(x, self._params.flat)))
            x = maxpool2x2(self._conv(f"enc{lvl}_c2", x, cache, out=cats[lvl][:, c:]))
            if cache is not None:
                cache[f"pool{lvl}"] = x
        x = self._conv(f"enc{top}_c2", self._conv(f"enc{top}_c1", x, cache), cache)
        if bottleneck_add is not None:
            x = x + add[:, :, None, None]
        if cache is not None:
            cache["bottleneck"] = x  # the deepest transposed conv's input

        for lvl in range(top - 1, -1, -1):
            x = self._conv(f"dec{lvl}_c1", self._upsample(lvl, x, cats.pop(), cache), cache)
            x = self._conv(f"dec{lvl}_c2", x, cache)
        logits = conv2d(x, self._params["head_w"], self._params["head_b"])
        if keep:
            self._cache = cache
        return logits

    def backward(self, dlogits: np.ndarray) -> tuple[Params, np.ndarray | None]:
        """Returns (parameter grads, bottleneck-vector grad or None); uses up the forward's cache.

        Parameter grads have the layout of `params()`, an owner's entries zero.
        The first conv skips its input gradient: the input is data, which no
        caller differentiates.
        """
        cache, self._cache = self._cache, None
        if cache is None:
            raise InvalidArgument("backward needs a forward that kept its cache since the last backward")
        cfg = self.config
        top = cfg.depth - 1
        grads = self._params.zeros_like()

        def conv_back(key: str, dy: np.ndarray, x: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
            """Input gradient of conv `key` and its ReLU, whose output leaves the cache as the mask is read."""
            dz = relu_backward(dy, cache.pop(key))
            dx, grads[f"{key}_w"], grads[f"{key}_b"] = conv2d_backward(
                dz, x, self._params[f"{key}_w"], padding="same", input_grad=input_grad)
            return dx

        dy, grads["head_w"], grads["head_b"] = conv2d_backward(dlogits, cache["dec0_c2"], self._params["head_w"])
        skip_grads = []  # level lvl's decoder-input gradient past its upsampled channels
        for lvl in range(top):
            dy = conv_back(f"dec{lvl}_c2", dy, cache[f"dec{lvl}_c1"])
            dy = conv_back(f"dec{lvl}_c1", dy, cache.pop(f"cat{lvl}"))
            up_channels = cfg.widths[lvl]
            skip_grads.append(dy[:, up_channels:])
            dy, grads[f"up{lvl}_w"], grads[f"up{lvl}_b"] = conv_transpose2x2_backward(
                dy[:, :up_channels], cache[f"dec{lvl + 1}_c2"] if lvl < top - 1 else cache.pop("bottleneck"),
                self._params[f"up{lvl}_w"])

        d_bottleneck = dy.sum(axis=(2, 3)) if cache.pop("add") else None
        for lvl in range(top, -1, -1):
            if lvl < top:
                dy = maxpool2x2_backward(dy, cache[f"enc{lvl}_c2"]) + skip_grads.pop()
            dy = conv_back(f"enc{lvl}_c2", dy, cache[f"enc{lvl}_c1"])
            dy = conv_back(f"enc{lvl}_c1", dy, cache.pop(f"pool{lvl - 1}" if lvl else "x"), input_grad=lvl > 0)
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
        logits = model.forward(chunk[:, None], keep=False)
        finite = np.isfinite(logits).all(axis=(1, 2, 3))
        if not finite.all():
            raise Diverged(f"segmentation diverged at image {start + int(finite.argmin())}: "
                           f"its logits are not finite")
        for img, z in zip(chunk, logits[:, 0]):
            mask = (z >= 0.0).astype(np.float32)
            yield mask, img * mask
