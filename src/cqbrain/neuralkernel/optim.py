"""One flat parameter vector per model, Adam over it, and one epoch pass.

A step updates the whole vector with one state vector per moment and one
counter `t` (every backward fills every gradient, so one counter is exact).
`run_epoch` is the one pass the three trainers run an epoch through: it
checks for an empty set, shuffles, batches and times the epoch.
"""
from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterator, Mapping

import numpy as np

from ..errors import Diverged, EmptyInput, InvalidArgument
from ..rng import Rng


class Params(Mapping):
    """Named tensors held as views into one flat vector `flat`, in insertion order."""

    def __init__(self, shapes: Mapping[str, tuple[int, ...]], dtype=np.float32):
        self.flat = np.zeros(sum(math.prod(s) for s in shapes.values()), dtype)
        self._views: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            self._views[name] = self.flat[offset : offset + size].reshape(shape)
            offset += size

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        """Copy `value` into the named view; its shape must match."""
        view = self._views[name]
        if np.shape(value) != view.shape:
            raise InvalidArgument(f"{name}: got shape {np.shape(value)}, holds {view.shape}")
        view[...] = value

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def zeros_like(self) -> "Params":
        return Params({name: v.shape for name, v in self._views.items()}, self.flat.dtype)


class Optimizer:
    """Adam over a flat parameter vector; the first `step` sizes its state.

    The update runs in place in the operand order of the textbook expression
    (b1*m, then (1-b1)*g, then their sum, ...) with two work vectors, so it
    allocates nothing per step and keeps the bytes of the per-tensor rule.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self._m = self._v = self._a = self._b = np.zeros(0, np.float32)

    def step(self, params: Params, grads: Params) -> None:
        """Update every parameter in place from gradients in the same layout."""
        p, g = params.flat, grads.flat
        if g.shape != p.shape:
            raise InvalidArgument(f"gradient vector holds {g.size} values, parameters {p.size}")
        if self.t == 0:
            self._m, self._v, self._a, self._b = (np.zeros_like(p) for _ in range(4))
        elif self._m.shape != p.shape:
            raise InvalidArgument(f"optimizer state holds {self._m.size} values, parameters {p.size}")
        self.t += 1
        b1, b2, t, m, v, a, b = self.beta1, self.beta2, self.t, self._m, self._v, self._a, self._b
        m *= b1
        np.multiply(1.0 - b1, g, out=a)
        m += a
        v *= b2
        np.square(g, out=a)
        a *= 1.0 - b2
        v += a
        np.divide(m, 1.0 - b1**t, out=a)  # m_hat
        np.divide(v, 1.0 - b2**t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += self.eps
        a *= self.lr
        a /= b
        p -= a


def make_optimizer(name: str, lr: float = 1e-3) -> Optimizer:
    """The one optimizer the trainers use; `name` must be "adam"."""
    if name != "adam":
        raise InvalidArgument(f"unknown optimizer {name!r}, only 'adam' is available")
    return Optimizer(lr)


def run_epoch(shuffle: Rng, n: int, batch_size: int, epoch: int,
              step: Callable[[np.ndarray, int], float]) -> tuple[float, float]:
    """(mean batch loss, seconds) of one timed pass over `shuffle.permutation(n)`.

    `step(indices, b0)` trains on the next `batch_size` shuffled dataset
    indices (the last batch may be shorter), whose first shuffled position is
    b0, and returns its loss. A Diverged from the step, or a loss that is not
    finite, becomes one Diverged naming the epoch, b0 and the batch's first
    dataset index. An empty set (n < 1) raises EmptyInput before any step.
    """
    if n < 1:
        raise EmptyInput("training set is empty")
    start = time.perf_counter()
    order = shuffle.permutation(n)
    total = 0.0
    for b0 in range(0, n, batch_size):
        indices = order[b0 : b0 + batch_size]
        try:
            loss = step(indices, b0)
            if not math.isfinite(loss):
                raise Diverged(f"loss is {loss}")
        except Diverged as exc:
            raise Diverged(f"training diverged at epoch {epoch}, shuffled position {b0} "
                           f"(dataset index {int(indices[0])}): {exc}") from exc
        total += loss
    return total / math.ceil(n / batch_size), time.perf_counter() - start
