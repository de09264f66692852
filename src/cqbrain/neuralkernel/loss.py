"""Cross-entropy for one sample's class-probability row."""
from __future__ import annotations

import numpy as np

from ..errors import InvalidArgument

CE_EPS = 1e-7  # lower clamp: keeps log finite when a probability hits exact 0


def _check(gamma: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gamma = np.asarray(gamma, dtype=np.float32)
    y = np.asarray(y, dtype=np.float32)
    if gamma.shape != y.shape or gamma.ndim != 1:
        raise InvalidArgument(f"probabilities {gamma.shape} vs labels {y.shape}: expected one row each")
    return gamma, y


def cross_entropy(gamma: np.ndarray, y: np.ndarray) -> float:
    """-sum(y log gamma) of one sample."""
    gamma, y = _check(gamma, y)
    return float(-(y * np.log(np.clip(gamma, CE_EPS, 1.0))).sum())


def cross_entropy_grad(gamma: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d loss / d gamma of one sample; the clamp acts as identity for gradient flow."""
    gamma, y = _check(gamma, y)
    return (-y / np.clip(gamma, CE_EPS, 1.0)).astype(np.float32)
