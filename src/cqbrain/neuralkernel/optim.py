"""One flat parameter vector per model, and Adam, SGD, RMSprop and Adagrad over it.

A step updates the whole vector with one state vector per moment and one
counter `t` (every backward fills every gradient, so one counter is exact).
Each rule runs in place into preallocated buffers, in the operand order of
the textbook expression (Adam: b1*m, then (1-b1)*g, then their sum, ...):
no full-size temporaries, and the bytes of the per-tensor rules.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Mapping

import numpy as np

from ..errors import ShapeMismatch


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
            raise ShapeMismatch(f"{name}: got shape {np.shape(value)}, holds {view.shape}")
        view[...] = value

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def zeros_like(self) -> "Params":
        return Params({name: v.shape for name, v in self._views.items()}, self.flat.dtype)


def _sgd(opt: "Optimizer", p, g, step) -> None:
    np.multiply(opt.lr, g, out=step)
    p -= step


def _scaled_step(opt: "Optimizer", p, g, acc, a, b) -> None:
    """p -= lr * g / (sqrt(acc) + eps), with a and b as work vectors."""
    np.sqrt(acc, out=b)
    b += opt.eps
    np.multiply(opt.lr, g, out=a)
    a /= b
    p -= a


def _rmsprop(opt: "Optimizer", p, g, v, a, b) -> None:
    v *= opt.rho
    np.square(g, out=a)
    a *= 1.0 - opt.rho
    v += a
    _scaled_step(opt, p, g, v, a, b)


def _adagrad(opt: "Optimizer", p, g, acc, a, b) -> None:
    np.square(g, out=a)
    acc += a
    _scaled_step(opt, p, g, acc, a, b)


def _adam(opt: "Optimizer", p, g, m, v, a, b) -> None:
    b1, b2, t = opt.beta1, opt.beta2, opt.t
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
    b += opt.eps
    a *= opt.lr
    a /= b
    p -= a


# name -> (rule, number of state and work vectors it takes after p and g)
_RULES = {"adam": (_adam, 4), "sgd": (_sgd, 1), "rmsprop": (_rmsprop, 3), "adagrad": (_adagrad, 3)}


class Optimizer:
    """One step rule over a flat parameter vector; the first `step` sizes its state."""

    beta1, beta2, rho, eps = 0.9, 0.999, 0.9, 1e-8

    def __init__(self, name: str, lr: float = 1e-3):
        if name not in _RULES:
            raise ValueError(f"unknown optimizer {name!r}, pick from {sorted(_RULES)}")
        self.name = name
        self.lr = lr
        self.t = 0
        self._buffers: list[np.ndarray] = []

    def step(self, params: Params, grads: Params) -> None:
        """Update every parameter in place from gradients in the same layout."""
        p, g = params.flat, grads.flat
        if g.shape != p.shape:
            raise ShapeMismatch(f"gradient vector holds {g.size} values, parameters {p.size}")
        rule, n_buffers = _RULES[self.name]
        if not self._buffers:
            self._buffers = [np.zeros_like(p) for _ in range(n_buffers)]
        elif self._buffers[0].shape != p.shape:
            raise ShapeMismatch(f"optimizer state holds {self._buffers[0].size} values, parameters {p.size}")
        self.t += 1
        rule(self, p, g, *self._buffers)


def make_optimizer(name: str, lr: float = 1e-3) -> Optimizer:
    return Optimizer(name, lr)
