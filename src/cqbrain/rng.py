"""Deterministic counter-based random streams.

One generator backs every stochastic step in the package: a SplitMix64
finalizer applied to (stream key + counter). Outputs depend only on the
integer seed, the chain of derivation labels, and how many values were
drawn, never on platform or call interleaving across streams. Gaussian
draws use Box-Muller on the uniform output.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgument

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_TWO_NEG53 = float(2.0**-53)


def _finalize(x: np.ndarray) -> np.ndarray:
    """SplitMix64 output function on a uint64 array; uint64 arithmetic wraps natively."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


def _fnv1a(label: str) -> int:
    h = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class Rng:
    """Counter-based stream; `derive(label)` forks an independent child."""

    def __init__(self, seed: int, _key: int | None = None):
        if _key is None:
            _key = (seed & _MASK64) * _GOLDEN & _MASK64
        self._key = _finalize(np.array([_key], np.uint64))[0]
        self._counter = 0

    def derive(self, label: str) -> "Rng":
        """Independent child stream; same (seed, label) always gives the same stream."""
        return Rng(0, _key=int(self._key) ^ _fnv1a(label))

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        return _finalize(self._key + idx * np.uint64(_GOLDEN))

    def uniform(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Uniform float64 in [0, 1)."""
        n = int(np.prod(shape, dtype=np.int64))
        return ((self._raw(n) >> np.uint64(11)).astype(np.float64) * _TWO_NEG53).reshape(shape)

    def normal(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Standard normal float64 via Box-Muller."""
        n = int(np.prod(shape, dtype=np.int64))
        u = self.uniform((2, (n + 1) // 2))
        r = np.sqrt(-2.0 * np.log1p(-u[0]))  # 1-u0 in (0,1] keeps log finite
        ang = 2.0 * math.pi * u[1]
        return np.concatenate([r * np.cos(ang), r * np.sin(ang)])[:n].reshape(shape)

    def integers(self, low: int, high: int, shape: int | tuple[int, ...]) -> np.ndarray:
        """Uniform integers in [low, high). Modulo bias is negligible for spans << 2^64."""
        if high <= low:
            raise InvalidArgument(f"empty range [{low}, {high})")
        n = int(np.prod(shape, dtype=np.int64))
        return (low + (self._raw(n) % np.uint64(high - low)).astype(np.int64)).reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic random permutation of range(n)."""
        return np.argsort(self._raw(n), kind="stable")
