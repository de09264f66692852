"""Desk-scale denoising diffusion for minority-class oversampling.

Forward process: x_t = sqrt(alpha_t) x_{t-1} + sqrt(1 - alpha_t) eps with a
linear beta schedule; the closed-form jump x_t = sqrt(abar_t) x_0 +
sqrt(1 - abar_t) eps trains a small U-Net to predict eps from (x_t, t).
Reverse sampling uses the predicted-noise mean with fixed variance
sigma_t^2 = beta_t (zero at the final step). A `NoiseSchedule` is the
triple (T, beta_start, beta_end) that checkpoints store.

Images live in [-1, 1] inside the diffusion math; `sample` returns [0, 1]
rasters ready for PGM export. All randomness comes from the caller's
stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Diverged, EmptyInput, InvalidArgument
from .neuralkernel import Optimizer, Params, glorot
from .rng import Rng
from .skullnet import UNet, UNetConfig

# diffuse-train's schedule defaults
DESK_T = 200
DEFAULT_BETA_START = 1e-4
DEFAULT_BETA_END = 0.02


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear betas from beta_start to beta_end over T steps; index t in [1, T] reads arrays[t-1]."""

    T: int
    beta_start: float
    beta_end: float
    betas: np.ndarray = field(init=False, repr=False, compare=False)
    alphas: np.ndarray = field(init=False, repr=False, compare=False)
    alpha_bars: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "betas", np.linspace(self.beta_start, self.beta_end, self.T))
        object.__setattr__(self, "alphas", 1.0 - self.betas)
        object.__setattr__(self, "alpha_bars", np.cumprod(self.alphas))

    def at(self, t: int) -> tuple[float, float, float]:
        """(beta_t, alpha_t, abar_t); validates 1 <= t <= T."""
        if not 1 <= t <= self.T:
            raise InvalidArgument(f"t = {t} outside [1, {self.T}]")
        return float(self.betas[t - 1]), float(self.alphas[t - 1]), float(self.alpha_bars[t - 1])


def build_schedule(T: int, beta_start: float = DEFAULT_BETA_START,
                   beta_end: float = DEFAULT_BETA_END) -> NoiseSchedule:
    """The schedule, if 0 < beta_start <= beta_end < 1 and T >= 1 (the constructor checks nothing)."""
    if T < 1:
        raise InvalidArgument(f"T must be >= 1, got {T}")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise InvalidArgument(f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})")
    return NoiseSchedule(T, beta_start, beta_end)


def _timestep_index(t, n: int, T: int) -> np.ndarray:
    ts = np.asarray(t, dtype=np.int64).reshape(-1)
    if ts.size == 1:
        ts = np.full(n, int(ts[0]), dtype=np.int64)
    if ts.size != n:
        raise InvalidArgument(f"need 1 or {n} timesteps, got {ts.size}")
    if (ts < 1).any() or (ts > T).any():
        raise InvalidArgument(f"timesteps outside [1, {T}]")
    return ts


def forward_step(x_prev: np.ndarray, t: int, schedule: NoiseSchedule, rng: Rng) -> np.ndarray:
    """One forward noising step from x_{t-1} to x_t."""
    x_prev = np.asarray(x_prev, dtype=np.float32)
    _, alpha, _ = schedule.at(t)
    eps = rng.normal(x_prev.shape).astype(np.float32)
    return np.float32(math.sqrt(alpha)) * x_prev + np.float32(math.sqrt(1.0 - alpha)) * eps


def forward_jump(x0: np.ndarray, t, schedule: NoiseSchedule, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form jump to x_t; returns (x_t, eps) with the exact noise used.

    t is one timestep per item of x0's first axis, or one for every item.
    """
    x0 = np.asarray(x0, dtype=np.float32)
    ts = _timestep_index(t, x0.shape[0], schedule.T)
    abars = schedule.alpha_bars[ts - 1].astype(np.float32).reshape(-1, *(1,) * (x0.ndim - 1))
    eps = rng.normal(x0.shape).astype(np.float32)
    return np.sqrt(abars) * x0 + np.sqrt(1.0 - abars) * eps, eps


def _check_emb_dim(dim: int) -> None:
    if dim < 2 or dim % 2:
        raise InvalidArgument(f"embedding dim must be even and >= 2, got {dim}")


def sinusoidal_embedding(ts: np.ndarray, dim: int) -> np.ndarray:
    """Fixed sin/cos features of the timestep, shape (len(ts), dim)."""
    _check_emb_dim(dim)
    half = dim // 2
    exponents = np.arange(half) / max(half - 1, 1)
    freqs = np.power(10000.0, -exponents)
    angles = np.asarray(ts, dtype=np.float64)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1).astype(np.float32)


@dataclass
class NoisePredictorConfig:
    image_size: int = 8
    widths: tuple[int, ...] = (8, 16)
    emb_dim: int = 16
    unet: UNetConfig = field(init=False, repr=False, compare=False)  # follows from the three above

    def __post_init__(self):
        _check_emb_dim(self.emb_dim)
        self.unet = UNetConfig(input_size=self.image_size, widths=self.widths)  # checks size against widths
        self.widths = self.unet.widths

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """The U-Net's tensors, then the embedding projection `temb_w`/`temb_b`."""
        c_b = self.unet.widths[-1]
        return {**self.unet.param_shapes(), "temb_w": (c_b, self.emb_dim), "temb_b": (c_b,)}


class NoisePredictor:
    """Small U-Net denoiser with the timestep embedding (`temb_w`/`temb_b`) added at the bottleneck."""

    def __init__(self, config: NoisePredictorConfig, rng: Rng):
        self.config = config
        self.unet = UNet(config.unet, rng.derive("unet"), config.param_shapes())
        glorot(rng.derive("init:temb"), self.unet.params()["temb_w"])
        self._emb: np.ndarray | None = None

    def params(self) -> Params:
        return self.unet.params()

    def forward(self, x_t: np.ndarray, t, keep: bool = True) -> np.ndarray:
        """Noise estimate with x_t's shape; x_t is (N, 1, H, W), t scalar or (N,).

        keep=False (sampling) keeps nothing for backward, as `UNet.forward` does.
        """
        x_t = np.asarray(x_t)
        ts = _timestep_index(t, x_t.shape[0], np.iinfo(np.int64).max)
        p = self.params()
        emb = sinusoidal_embedding(ts, self.config.emb_dim).astype(p.flat.dtype)
        badd = emb @ p["temb_w"].T + p["temb_b"]
        eps_hat = self.unet.forward(x_t, bottleneck_add=badd, keep=keep)
        if keep:
            self._emb = emb
        return eps_hat

    def backward(self, dy: np.ndarray) -> Params:
        """Gradients of every parameter, in the layout of `params()`; uses up the forward's cache."""
        grads, dba = self.unet.backward(dy)
        emb, self._emb = self._emb, None
        grads["temb_w"] = dba.T @ emb
        grads["temb_b"] = dba.sum(axis=0)
        return grads


def train_step(predictor, x0_batch: np.ndarray, schedule: NoiseSchedule,
               optimizer: Optimizer, rng: Rng) -> float:
    """One noise-prediction step: uniform t per item, squared-error on eps.

    The loss is the per-item sum of squared errors averaged over the batch
    (an exact-noise predictor scores 0; a zero predictor scores about the
    pixel count).
    """
    x0 = np.asarray(x0_batch, dtype=np.float32)
    if x0.ndim != 3 or x0.shape[0] == 0:
        raise EmptyInput(f"need a nonempty (N, H, W) batch, got {x0.shape}")
    x0 = x0[:, None]
    n = x0.shape[0]
    ts = rng.derive("timesteps").integers(1, schedule.T + 1, n)
    x_t, eps = forward_jump(x0, ts, schedule, rng.derive("noise"))
    eps_hat = predictor.forward(x_t, ts)
    diff = (eps_hat - eps).astype(np.float32)
    loss = float(np.sum(diff.astype(np.float64) ** 2) / n)
    if math.isfinite(loss):  # a diverged batch leaves the parameters as they were
        optimizer.step(predictor.params(), predictor.backward(2.0 * diff / np.float32(n)))
    return loss


def sample(predictor, schedule: NoiseSchedule, shape: tuple[int, int], rng: Rng,
           count: int = 1) -> np.ndarray:
    """Ancestral sampling from pure noise; returns (count, H, W) in [0, 1].

    A step whose output is not finite raises Diverged naming its timestep.
    """
    h, w = shape
    x = rng.derive("x_T").normal((count, 1, h, w)).astype(np.float32)
    z_rng = rng.derive("z")
    for t in range(schedule.T, 0, -1):
        beta, alpha, abar = schedule.at(t)
        eps_hat = predictor.forward(x, t, keep=False)
        mean = (x - np.float32(beta / math.sqrt(1.0 - abar)) * eps_hat) / np.float32(math.sqrt(alpha))
        if t > 1:
            mean = mean + np.float32(math.sqrt(beta)) * z_rng.normal(x.shape).astype(np.float32)
        x = mean
        if not np.isfinite(x).all():
            raise Diverged(f"sampling diverged at timestep {t} of {schedule.T}: the images are not finite")
    return (np.clip(x[:, 0], -1.0, 1.0) + 1.0) / 2.0
