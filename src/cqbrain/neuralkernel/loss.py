"""Cross-entropy for class-probability outputs."""
from __future__ import annotations

import numpy as np

from ..errors import InvalidArgument

CE_EPS = 1e-7  # lower clamp: keeps log finite when a probability hits exact 0


def _check(gamma: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gamma = np.asarray(gamma, dtype=np.float32)
    y = np.asarray(y, dtype=np.float32)
    if gamma.shape != y.shape or gamma.ndim not in (1, 2):
        raise InvalidArgument(f"probabilities {gamma.shape} vs labels {y.shape}")
    return gamma, y


def cross_entropy(gamma: np.ndarray, y: np.ndarray, eps: float = CE_EPS) -> float:
    """-sum(y log gamma) per sample, averaged over a leading batch axis."""
    gamma, y = _check(gamma, y)
    g = np.clip(gamma, eps, 1.0)
    per_sample = -(y * np.log(g)).sum(axis=-1)
    return float(per_sample.mean())


def cross_entropy_grad(gamma: np.ndarray, y: np.ndarray, eps: float = CE_EPS) -> np.ndarray:
    """d loss / d gamma, one sample as a batch of one; the clamp acts as identity for gradient flow."""
    gamma, y = _check(gamma, y)
    g = np.clip(gamma, eps, 1.0)
    return (-y / g / np.float32(len(np.atleast_2d(gamma)))).astype(np.float32)
