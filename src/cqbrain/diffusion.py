"""Desk-scale denoising diffusion for minority-class oversampling.

Forward process: x_t = sqrt(alpha_t) x_{t-1} + sqrt(1 - alpha_t) eps with a
linear beta schedule; the closed-form jump x_t = sqrt(abar_t) x_0 +
sqrt(1 - abar_t) eps trains a small U-Net to predict eps from (x_t, t).
Reverse sampling uses the predicted-noise mean with fixed variance
sigma_t^2 = beta_t (zero at the final step).

Images live in [-1, 1] inside the diffusion math; `sample` returns [0, 1]
rasters ready for PGM export. All randomness comes from the caller's
stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadRange, BadTimestep, EmptyBatch, ShapeMismatch
from .neuralkernel import Optimizer, glorot
from .rng import Rng
from .skullnet import UNet, UNetConfig

DEFAULT_T = 1000
DESK_T = 200
DEFAULT_BETA_START = 1e-4
DEFAULT_BETA_END = 0.02


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-timestep noise levels; index t in [1, T] reads arrays[t-1]."""

    T: int
    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray

    @classmethod
    def from_betas(cls, betas: np.ndarray) -> "NoiseSchedule":
        """Degenerate endpoints (beta of 0 or 1) are allowed here for identities."""
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise BadRange("need at least one beta")
        if (betas < 0.0).any() or (betas > 1.0).any():
            raise BadRange("betas must lie in [0, 1]")
        alphas = 1.0 - betas
        return cls(betas.size, betas, alphas, np.cumprod(alphas))

    def at(self, t: int) -> tuple[float, float, float]:
        """(beta_t, alpha_t, abar_t); validates 1 <= t <= T."""
        if not 1 <= t <= self.T:
            raise BadTimestep(f"t = {t} outside [1, {self.T}]")
        return float(self.betas[t - 1]), float(self.alphas[t - 1]), float(self.alpha_bars[t - 1])


def build_schedule(T: int = DEFAULT_T, beta_start: float = DEFAULT_BETA_START,
                   beta_end: float = DEFAULT_BETA_END) -> NoiseSchedule:
    """Linear beta interpolation from beta_start to beta_end over T steps."""
    if T < 1:
        raise BadRange(f"T must be >= 1, got {T}")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise BadRange(f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})")
    betas = np.linspace(beta_start, beta_end, T) if T > 1 else np.array([beta_start])
    return NoiseSchedule.from_betas(betas)


def _timestep_index(t, n: int, T: int) -> np.ndarray:
    ts = np.asarray(t, dtype=np.int64).reshape(-1)
    if ts.size == 1:
        ts = np.full(n, int(ts[0]), dtype=np.int64)
    if ts.size != n:
        raise ShapeMismatch(f"need 1 or {n} timesteps, got {ts.size}")
    if (ts < 1).any() or (ts > T).any():
        raise BadTimestep(f"timesteps outside [1, {T}]")
    return ts


def forward_step(x_prev: np.ndarray, t: int, schedule: NoiseSchedule, rng: Rng) -> np.ndarray:
    """One forward noising step from x_{t-1} to x_t."""
    x_prev = np.asarray(x_prev, dtype=np.float32)
    _, alpha, _ = schedule.at(t)
    eps = rng.normal(x_prev.shape).astype(np.float32)
    return np.float32(math.sqrt(alpha)) * x_prev + np.float32(math.sqrt(1.0 - alpha)) * eps


def forward_jump(x0: np.ndarray, t, schedule: NoiseSchedule, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form jump to x_t; returns (x_t, eps) with the exact noise used.

    Accepts one timestep or a per-item vector when x0 has a batch axis.
    """
    x0 = np.asarray(x0, dtype=np.float32)
    if np.ndim(t) == 0:
        _, _, abar = schedule.at(int(t))
        eps = rng.normal(x0.shape).astype(np.float32)
        return np.float32(math.sqrt(abar)) * x0 + np.float32(math.sqrt(1.0 - abar)) * eps, eps
    ts = _timestep_index(t, x0.shape[0], schedule.T)
    abars = schedule.alpha_bars[ts - 1].astype(np.float32)
    shape_tail = (1,) * (x0.ndim - 1)
    a = np.sqrt(abars).reshape(-1, *shape_tail)
    b = np.sqrt(1.0 - abars).reshape(-1, *shape_tail)
    eps = rng.normal(x0.shape).astype(np.float32)
    return a * x0 + b * eps, eps


def sinusoidal_embedding(ts: np.ndarray, dim: int) -> np.ndarray:
    """Fixed sin/cos features of the timestep, shape (len(ts), dim)."""
    if dim < 2 or dim % 2:
        raise ShapeMismatch(f"embedding dim must be even and >= 2, got {dim}")
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

    def unet_config(self) -> UNetConfig:
        return UNetConfig(input_size=self.image_size, widths=self.widths,
                          in_channels=1, out_channels=1)


class NoisePredictor:
    """Small U-Net denoiser with the timestep embedding added at the bottleneck."""

    def __init__(self, config: NoisePredictorConfig, rng: Rng | None = None):
        self.config = config
        rng = rng if rng is not None else Rng(0)
        self.unet = UNet(config.unet_config(), rng.derive("unet"))
        c_b = self.unet.config.bottleneck_channels
        self.temb_w = glorot(rng.derive("init:temb"), (c_b, config.emb_dim), config.emb_dim, c_b)
        self.temb_b = np.zeros(c_b, np.float32)
        self._emb: np.ndarray | None = None

    def params(self) -> dict[str, np.ndarray]:
        out = dict(self.unet.params)
        out["temb_w"] = self.temb_w
        out["temb_b"] = self.temb_b
        return out

    def param_count(self) -> int:
        return sum(int(np.prod(p.shape)) for p in self.params().values())

    def forward(self, x_t: np.ndarray, t) -> np.ndarray:
        """Noise estimate with x_t's shape; x_t is (N, 1, H, W), t scalar or (N,)."""
        x_t = np.asarray(x_t)
        ts = _timestep_index(t, x_t.shape[0], np.iinfo(np.int64).max)
        emb = sinusoidal_embedding(ts, self.config.emb_dim).astype(self.temb_w.dtype)
        self._emb = emb
        badd = emb @ self.temb_w.T + self.temb_b
        return self.unet.forward(x_t, bottleneck_add=badd)

    def backward(self, dy: np.ndarray) -> dict[str, np.ndarray]:
        grads, _, dba = self.unet.backward(dy)
        grads["temb_w"] = dba.T @ self._emb
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
    if x0.ndim == 3:
        x0 = x0[:, None]
    if x0.ndim != 4 or x0.shape[0] == 0:
        raise EmptyBatch(f"need a nonempty (N, H, W) or (N, 1, H, W) batch, got {x0_batch.shape}")
    n = x0.shape[0]
    ts = rng.derive("timesteps").integers(1, schedule.T + 1, n)
    x_t, eps = forward_jump(x0, ts, schedule, rng.derive("noise"))
    eps_hat = predictor.forward(x_t, ts)
    diff = (eps_hat - eps).astype(np.float32)
    loss = float(np.sum(diff.astype(np.float64) ** 2) / n)
    grads = predictor.backward(2.0 * diff / np.float32(n))
    params = predictor.params()
    optimizer.step(params, grads)
    return loss


def sample(predictor, schedule: NoiseSchedule, shape: tuple[int, int], rng: Rng,
           count: int = 1) -> np.ndarray:
    """Ancestral sampling from pure noise; returns (count, H, W) in [0, 1]."""
    h, w = shape
    x = rng.derive("x_T").normal((count, 1, h, w)).astype(np.float32)
    z_rng = rng.derive("z")
    for t in range(schedule.T, 0, -1):
        beta, alpha, abar = schedule.at(t)
        eps_hat = predictor.forward(x, t)
        mean = (x - np.float32(beta / math.sqrt(1.0 - abar)) * eps_hat) / np.float32(math.sqrt(alpha))
        if t > 1:
            mean = mean + np.float32(math.sqrt(beta)) * z_rng.normal(x.shape).astype(np.float32)
        x = mean
    return (np.clip(x[:, 0], -1.0, 1.0) + 1.0) / 2.0
