"""Layer kernels (conv, pool, dense, dropout, activations) and weight init.

All kernels accept a single item (channel-first, e.g. (C, H, W)) or a
leading batch axis, compute in float32, and keep reductions in a fixed
serial order so repeated runs are bit-identical.
"""
from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch
from ..rng import Rng

_WINDOW_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))  # row-major tie-break order


def glorot(rng: Rng, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform float32 weights: U(-b, b) with b = sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return ((rng.uniform(shape) * 2.0 - 1.0) * bound).astype(np.float32)


def _as_f32(x: np.ndarray) -> np.ndarray:
    """float32 by default; float64 passes through so checks can run at full precision."""
    x = np.asarray(x)
    dtype = np.float64 if x.dtype == np.float64 else np.float32
    return np.ascontiguousarray(x, dtype=dtype)


def _batched(x: np.ndarray, ndim: int) -> tuple[np.ndarray, bool]:
    """Add a leading batch axis if `x` is a single item of rank `ndim`."""
    if x.ndim == ndim:
        return x[None], True
    if x.ndim == ndim + 1:
        return x, False
    raise ShapeMismatch(f"expected rank {ndim} or {ndim + 1}, got shape {x.shape}")


def _pad_same(x: np.ndarray, k: int) -> np.ndarray:
    if k % 2 == 0:
        raise ShapeMismatch(f"'same' padding needs an odd kernel, got {k}")
    p = (k - 1) // 2
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))


def _im2col(x: np.ndarray, k: int, stride: int, h_out: int, w_out: int) -> np.ndarray:
    n, c = x.shape[:2]
    cols = np.empty((n, c, k, k, h_out, w_out), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            cols[:, :, ki, kj] = x[:, :, ki : ki + stride * h_out : stride, kj : kj + stride * w_out : stride]
    return cols.reshape(n, c * k * k, h_out * w_out)


def _col2im(dcols: np.ndarray, x_shape: tuple, k: int, stride: int, h_out: int, w_out: int) -> np.ndarray:
    n, c = x_shape[:2]
    dx = np.zeros(x_shape, dtype=dcols.dtype)
    dcols = dcols.reshape(n, c, k, k, h_out, w_out)
    for ki in range(k):
        for kj in range(k):
            dx[:, :, ki : ki + stride * h_out : stride, kj : kj + stride * w_out : stride] += dcols[:, :, ki, kj]
    return dx


def _conv_geometry(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: str):
    if w.ndim != 4 or w.shape[2] != w.shape[3]:
        raise ShapeMismatch(f"weights must be (C_out, C_in, K, K), got {w.shape}")
    c_out, c_in, k, _ = w.shape
    if x.shape[1] != c_in:
        raise ShapeMismatch(f"input has {x.shape[1]} channels, weights expect {c_in}")
    if b.shape != (c_out,):
        raise ShapeMismatch(f"bias must be ({c_out},), got {b.shape}")
    if padding == "same":
        if stride != 1:
            raise ShapeMismatch("'same' padding only supports stride 1")
        h_out, w_out = x.shape[2], x.shape[3]
    elif padding == "valid":
        h, wdt = x.shape[2], x.shape[3]
        if k > h or k > wdt:
            raise ShapeMismatch(f"kernel {k} exceeds input {h}x{wdt}")
        if (h - k) % stride or (wdt - k) % stride:
            raise ShapeMismatch(f"stride {stride} does not evenly cover {h}x{wdt} with kernel {k}")
        h_out, w_out = (h - k) // stride + 1, (wdt - k) // stride + 1
    else:
        raise ShapeMismatch(f"padding must be 'valid' or 'same', got {padding!r}")
    return c_out, c_in, k, h_out, w_out


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1, padding: str = "valid") -> np.ndarray:
    """Cross-correlation plus bias; x (C_in,H,W) or (N,C_in,H,W), w (C_out,C_in,K,K)."""
    x, w, b = _as_f32(x), _as_f32(w), _as_f32(b)
    xb, single = _batched(x, 3)
    c_out, c_in, k, h_out, w_out = _conv_geometry(xb, w, b, stride, padding)
    xp = _pad_same(xb, k) if padding == "same" else xb
    cols = _im2col(xp, k, stride, h_out, w_out)
    y = np.matmul(w.reshape(c_out, -1), cols)  # (N, C_out, L)
    y = y.reshape(xb.shape[0], c_out, h_out, w_out) + b[:, None, None]
    return y[0] if single else y


def conv2d_backward(
    dy: np.ndarray, x: np.ndarray, w: np.ndarray, stride: int = 1, padding: str = "valid"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of conv2d for upstream dy."""
    x, w, dy = _as_f32(x), _as_f32(w), _as_f32(dy)
    xb, single = _batched(x, 3)
    dyb, _ = _batched(dy, 3)
    c_out, c_in, k, h_out, w_out = _conv_geometry(xb, w, np.zeros(w.shape[0], np.float32), stride, padding)
    if dyb.shape[1:] != (c_out, h_out, w_out):
        raise ShapeMismatch(f"upstream must be (*, {c_out}, {h_out}, {w_out}), got {dyb.shape}")
    xp = _pad_same(xb, k) if padding == "same" else xb
    cols = _im2col(xp, k, stride, h_out, w_out)
    dy_mat = dyb.reshape(dyb.shape[0], c_out, -1)

    db = dy_mat.sum(axis=(0, 2))
    dw = np.matmul(dy_mat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    dcols = np.matmul(w.reshape(c_out, -1).T, dy_mat)
    dxp = _col2im(dcols, xp.shape, k, stride, h_out, w_out)
    if padding == "same":
        p = (k - 1) // 2
        dxp = dxp[:, :, p : p + xb.shape[2], p : p + xb.shape[3]]
    return (dxp[0] if single else dxp), dw, db


def conv_transpose2x2(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2x2 stride-2 transposed conv (doubles H and W); w is (C_in, C_out, 2, 2)."""
    x, w, b = _as_f32(x), _as_f32(w), _as_f32(b)
    xb, single = _batched(x, 3)
    if w.ndim != 4 or w.shape[2:] != (2, 2):
        raise ShapeMismatch(f"weights must be (C_in, C_out, 2, 2), got {w.shape}")
    c_in, c_out = w.shape[:2]
    if xb.shape[1] != c_in:
        raise ShapeMismatch(f"input has {xb.shape[1]} channels, weights expect {c_in}")
    if b.shape != (c_out,):
        raise ShapeMismatch(f"bias must be ({c_out},), got {b.shape}")
    n, _, h, wdt = xb.shape
    y = np.zeros((n, c_out, 2 * h, 2 * wdt), dtype=xb.dtype)
    for di, dj in _WINDOW_OFFSETS:
        y[:, :, di::2, dj::2] = np.einsum("io,nihw->nohw", w[:, :, di, dj], xb)
    y += b[:, None, None]
    return y[0] if single else y


def conv_transpose2x2_backward(
    dy: np.ndarray, x: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x, w, dy = _as_f32(x), _as_f32(w), _as_f32(dy)
    xb, single = _batched(x, 3)
    dyb, _ = _batched(dy, 3)
    c_in, c_out = w.shape[:2]
    if dyb.shape[1:] != (c_out, 2 * xb.shape[2], 2 * xb.shape[3]):
        raise ShapeMismatch(f"upstream shape {dyb.shape} does not match doubled input {xb.shape}")
    dx = np.zeros_like(xb)
    dw = np.zeros_like(w)
    for di, dj in _WINDOW_OFFSETS:
        dy_sub = dyb[:, :, di::2, dj::2]
        dx += np.einsum("io,nohw->nihw", w[:, :, di, dj], dy_sub)
        dw[:, :, di, dj] = np.einsum("nihw,nohw->io", xb, dy_sub)
    db = dyb.sum(axis=(0, 2, 3))
    return (dx[0] if single else dx), dw, db


def maxpool2x2(x: np.ndarray) -> np.ndarray:
    """Per-window max over 2x2 tiles; odd trailing row/column dropped."""
    x = _as_f32(x)
    xb, single = _batched(x, 3)
    h2, w2 = xb.shape[2] // 2, xb.shape[3] // 2
    stack = np.stack([xb[:, :, di : 2 * h2 : 2, dj : 2 * w2 : 2] for di, dj in _WINDOW_OFFSETS])
    y = stack.max(axis=0)
    return y[0] if single else y


def maxpool2x2_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Routes dy to each window's argmax (row-major first on ties)."""
    x, dy = _as_f32(x), _as_f32(dy)
    xb, single = _batched(x, 3)
    dyb, _ = _batched(dy, 3)
    h2, w2 = xb.shape[2] // 2, xb.shape[3] // 2
    if dyb.shape[1:] != (xb.shape[1], h2, w2):
        raise ShapeMismatch(f"upstream shape {dyb.shape} does not match pooled {xb.shape}")
    stack = np.stack([xb[:, :, di : 2 * h2 : 2, dj : 2 * w2 : 2] for di, dj in _WINDOW_OFFSETS])
    winner = stack.argmax(axis=0)  # argmax returns the first max: row-major tie-break
    dx = np.zeros_like(xb)
    for idx, (di, dj) in enumerate(_WINDOW_OFFSETS):
        view = dx[:, :, di : 2 * h2 : 2, dj : 2 * w2 : 2]
        np.copyto(view, dyb, where=(winner == idx))
    return dx[0] if single else dx


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(_as_f32(x), 0.0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    dy = _as_f32(dy)
    return np.where(np.asarray(x) > 0, dy, dy.dtype.type(0.0))


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map W x + b; w is (N_out, N_in), x is (N_in,) or (N, N_in)."""
    x, w, b = _as_f32(x), _as_f32(w), _as_f32(b)
    if w.ndim != 2 or x.shape[-1] != w.shape[1] or b.shape != (w.shape[0],):
        raise ShapeMismatch(f"dense shapes x={x.shape} w={w.shape} b={b.shape}")
    return x @ w.T + b


def dense_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x, w, dy = _as_f32(x), _as_f32(w), _as_f32(dy)
    if dy.shape[-1] != w.shape[0]:
        raise ShapeMismatch(f"upstream width {dy.shape[-1]} does not match {w.shape[0]} outputs")
    dx = dy @ w
    if x.ndim == 1:
        dw = np.outer(dy, x)
        db = dy.copy()
    else:
        dw = dy.T @ x
        db = dy.sum(axis=0)
    return dx, dw, db


def dropout(x: np.ndarray, rate: float, mode: str, rng: Rng | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout. Returns (y, mask); backward reuses the mask.

    Train mode zeroes each unit with probability `rate` and scales
    survivors by 1/(1-rate); eval mode is the identity.
    """
    x = _as_f32(x)
    if not 0.0 <= rate < 1.0:
        raise ShapeMismatch(f"dropout rate must be in [0, 1), got {rate}")
    if mode == "eval" or rate == 0.0:
        return x, np.ones_like(x)
    if mode != "train":
        raise ShapeMismatch(f"mode must be 'train' or 'eval', got {mode!r}")
    if rng is None:
        raise ShapeMismatch("train-mode dropout needs an explicit rng stream")
    mask = (rng.uniform(x.shape) >= rate).astype(x.dtype)
    return x * mask / (1.0 - rate), mask


def dropout_backward(dy: np.ndarray, mask: np.ndarray, rate: float) -> np.ndarray:
    dy = _as_f32(dy)
    return dy * np.asarray(mask, dy.dtype) / (1.0 - rate)


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    x_in = np.asarray(x)
    x_arr = x_in.astype(np.float64)
    out = np.where(x_arr >= 0, 1.0 / (1.0 + np.exp(-np.abs(x_arr))), np.exp(-np.abs(x_arr)) / (1.0 + np.exp(-np.abs(x_arr))))
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out.astype(np.float64 if x_in.dtype == np.float64 else np.float32)


def sigmoid_backward(dy: np.ndarray | float, y: np.ndarray | float) -> np.ndarray | float:
    return dy * y * (1.0 - y)
