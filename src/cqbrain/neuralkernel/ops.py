"""Layer kernels (conv, pool, dense, dropout, activations) and weight init.

All kernels accept a single item (channel-first, e.g. (C, H, W)) or a
leading batch axis, except `dense` and `dense_backward`, which take one
row. They compute in float32 and keep reductions in a fixed serial
order so repeated runs are bit-identical.

Backward kernels compute only what their caller uses:
`conv2d_backward(..., input_grad=False)` returns None in place of dx and
skips the work that forms it (for a first layer, whose input is the data).

Max-pool tie rule: `maxpool2x2_backward` routes each window's upstream
gradient to the first of its maxima in row-major order
((0,0), (0,1), (1,0), (1,1)); -0.0 and 0.0 count as equal. A window
holding a NaN has no element equal to its max and receives no gradient.
`relu_maxpool2x2_backward(dy, z, pooled)`, the gradient of
maxpool2x2(relu(z)), follows the same rule on z, and routes only where the
window's max is above 0; it reads each window's max from the forward's
`pooled`, maxpool2x2(z) or its ReLU, which agree wherever the max is above
0 and so give the same result. Its result equals
`relu_backward(maxpool2x2_backward(dy, relu(z)), z)` byte for byte. Every
element no window routes to, the odd trailing row and column included, is
+0.0. The pool kernels read x through strided views, so a view into a
wider array (the U-Net's skip inside its decoder input) is read in place.

Backward without selects: `relu_backward` and both pool backward kernels
pass dy on through its integer view (int32 for float32, int64 for float64)
times keep, where keep is False or True: a kept element is dy's bits exactly
(NaN payloads and -0.0 included) and every other element is +0.0's all-zero
bits. The float product dy * keep would differ: NaN * 0 is NaN and
-x * 0 is -0.0.

Kernel rows: every conv runs one lowering (MEC, Cho & Brand 2017,
arXiv:1706.06873). With P the padding and W_out = W + 2P - K + 1, `_expand`
copies x K times along the row into ex (N, C_in*K, (H+2P)*W_out), where
ex[n, (c, kj), r*W_out + j] = x_pad[n, c, r, j + kj]: one slice copy of x's
in-range rectangle per kj, with the border strips that the padding covers
zeroed, so no padded copy of x is made. Read flat per map, the run of
H_out*W_out entries from ki*W_out holds, for every output (i, j), the inputs
that kernel row ki weighs. So y is the sum over ki of the GEMMs
w[:, :, ki, :] (C_out, C_in*K) @ ex[n, :, ki*W_out : ki*W_out + H_out*W_out],
written straight into the output's shape with nothing to crop. The output
starts as the bias and each row's GEMM is added to it in ki order. A stride
s > 1 conv is the stride-1 conv read at [::s, ::s], so the expansion never
sees a stride. A 1x1 conv without padding copies nothing: x's own maps, read
as (N, C_in, H*W), are its one kernel row.

Blocks of maps: a conv expands, multiplies and writes one block of maps at a
time, as many maps as fit `_BLOCK_BYTES` of kernel rows and never fewer than
one (Goto & van de Geijn 2008 keep a GEMM's packed operand cache-sized the
same way), so the rows stay in cache at any batch size. Each map gets GEMMs
of its own, so a batch item's result is its one-item result bit for bit,
whatever the blocks.

Backward on kernel rows: dw[:, :, ki, :] is the sum over maps, in map
order, of dy's run times the transpose of x's ex run from ki*W_out. Each
block's products follow the earlier maps' running sum in the workspace and
one reduction adds them on, so dw is the sum over all N products at once:
numpy adds along the leading axis from +0.0 in map order (a product of one
entry would be summed pairwise, but only a 1x1 conv with one channel in and
one out has one, and its maps are always one block). dx is the forward's code
run on dy, spread `stride` apart into a zeroed array when stride > 1,
zero-padded by K - 1 - P and correlated with the kernel flipped in both
spatial axes and its two channel axes swapped (Dumoulin & Visin 2016,
arXiv:1603.07285): dx[c, r, s] is the sum over o, ki, kj of
dy_spread[o, r + ki - (K-1-P), s + kj - (K-1-P)] * w[o, c, K-1-ki, K-1-kj],
reading zero outside dy_spread. Without a bias, its first row's GEMM writes
dx. Order: `conv2d_backward` forms dw from x's ex before it expands dy,
since both live in the same workspace buffer and dy's overwrites x's.

The 2x2 transposed conv is one GEMM of the (C_out*4, C_in) weight matrix,
rows (o, di, dj), against each map, plus four strided copies, one per
quadrant, that interleave those rows into the doubled output: with y viewed
as (N, C_out, H, 2, W, 2), y[:, :, :, di, :, dj] is rows (o, di, dj). Its
backward de-interleaves dy into such rows with one copy, which reads dy's
quadrants faster than four copies do, then forms dx with one GEMM against
the same matrix and dw with one GEMM of the rows against each map of x.

Workspace: kernel rows, their GEMM accumulator, per-map dw products and
transposed-conv rows are carved from one grow-only workspace buffer per
dtype and per thread, instead of fresh arrays per call (317,440 B of
kernel rows for a 128 px first layer, which the allocator would otherwise
hand back to the system and page in again on every call). Lifetime rule:
they live only until the kernel that carved them returns. A kernel carves
all it needs in one call, except a conv backward, which expands dy over
x's kernel rows once dw is formed. No kernel returns or keeps them, and
every returned array is freshly allocated, so no output aliases the
buffer. Bound: a conv carves one block's kernel rows (at most
`_BLOCK_BYTES`, or one map's rows where one map alone is larger) plus that
block's GEMM accumulator or its dw products and running sum; a transposed
conv carves its rows. The buffer keeps the size of the largest such set the
thread has carved.
"""
from __future__ import annotations

import math
import threading

import numpy as np

from ..errors import InvalidArgument
from ..rng import Rng

_WINDOW_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))  # row-major tie-break order


def glorot(rng: Rng, w: np.ndarray) -> None:
    """Fill `w` (out, in, *kernel) in place with U(-b, b), b = sqrt(6 / (fan_in + fan_out)).

    A transposed conv's (in, out, *kernel) weight gets the same b: it depends only on the sum.
    """
    bound = np.sqrt(6.0 / (w[0].size + w.size // w.shape[1]))
    w[...] = (rng.uniform(w.shape) * 2.0 - 1.0) * bound


def _as_f32(x: np.ndarray) -> np.ndarray:
    """float32 by default; float64 passes through so checks can run at full precision."""
    x = np.asarray(x)
    dtype = np.float64 if x.dtype == np.float64 else np.float32
    return np.ascontiguousarray(x, dtype=dtype)


def _as_float(x: np.ndarray) -> np.ndarray:
    """`_as_f32`'s dtype without its contiguous copy: for kernels that read x only through strided views."""
    x = np.asarray(x)
    return x.astype(np.float64 if x.dtype == np.float64 else np.float32, copy=False)


def _batched(x: np.ndarray, ndim: int) -> tuple[np.ndarray, bool]:
    """Add a leading batch axis if `x` is a single item of rank `ndim`."""
    if x.ndim == ndim:
        return x[None], True
    if x.ndim == ndim + 1:
        return x, False
    raise InvalidArgument(f"expected rank {ndim} or {ndim + 1}, got shape {x.shape}")


_workspace = threading.local()


def _workspace_arrays(dtype: np.dtype, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """One view per shape, end to end in the calling thread's workspace for `dtype`, grown if needed."""
    buffers = _workspace.__dict__.setdefault("by_dtype", {})
    sizes = [math.prod(shape) for shape in shapes]
    buf = buffers.get(dtype)
    if buf is None or buf.size < sum(sizes):
        buf = buffers[dtype] = np.empty(sum(sizes), dtype)
    views, start = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(buf[start : start + size].reshape(shape))
        start += size
    return views


def _conv_geometry(x: np.ndarray, w: np.ndarray, stride: int, padding: str):
    """(c_out, h_out, w_out, pad) of a conv, after checking every shape."""
    if w.ndim != 4 or w.shape[2] != w.shape[3]:
        raise InvalidArgument(f"weights must be (C_out, C_in, K, K), got {w.shape}")
    c_out, c_in, k, _ = w.shape
    if x.shape[1] != c_in:
        raise InvalidArgument(f"input has {x.shape[1]} channels, weights expect {c_in}")
    if padding == "same":
        if stride != 1:
            raise InvalidArgument("'same' padding only supports stride 1")
        if k % 2 == 0:
            raise InvalidArgument(f"'same' padding needs an odd kernel, got {k}")
        h_out, w_out, pad = x.shape[2], x.shape[3], (k - 1) // 2
    elif padding == "valid":
        h, wdt = x.shape[2], x.shape[3]
        if k > h or k > wdt:
            raise InvalidArgument(f"kernel {k} exceeds input {h}x{wdt}")
        if (h - k) % stride or (wdt - k) % stride:
            raise InvalidArgument(f"stride {stride} does not evenly cover {h}x{wdt} with kernel {k}")
        h_out, w_out, pad = (h - k) // stride + 1, (wdt - k) // stride + 1, 0
    else:
        raise InvalidArgument(f"padding must be 'valid' or 'same', got {padding!r}")
    return c_out, h_out, w_out, pad


# Bytes of kernel rows one block of maps may take (see module docstring). Swept over 256 KB
# to 2 MB on a 2-vCPU Xeon (2 MB L2 per core), one BLAS thread, min of 20 rounds (BENCH_28.json):
# a batch-8 training step of the 64 px, width-1/8 U-Net took 19.8, 18.5, 17.3, 18.7, 19.2 and
# 19.4 ms at 256, 512, 768, 1024, 1536 and 2048 KB (19.6 unbounded, 25.3 at one map a block),
# and the 32 px denoiser's batch-16 step 10.1, 8.3, 8.3, 8.5, 9.2 and 9.7 ms (9.7, 13.0).
_BLOCK_BYTES = 768 << 10


def _row_block(x_shape: tuple[int, ...], k: int, pad: int, dtype: np.dtype) -> tuple[int, tuple[int, ...]]:
    """(maps per block, one block's kernel-row shape (M, C, K, H+2P, W_out)) for x (N, C, H, W).

    A block holds as many maps as fit _BLOCK_BYTES of rows, and at least one. A 1x1 conv
    without padding copies no rows: all N maps are one block, and the shape is empty.
    """
    n, c, h, w = x_shape
    if k == 1 and pad == 0:
        return n, (0,)
    rows = (c, k, h + 2 * pad, w + 2 * pad - k + 1)
    maps = min(n, max(1, _BLOCK_BYTES // (math.prod(rows) * dtype.itemsize)))
    return maps, (maps, *rows)


def _expand(x: np.ndarray, k: int, pad: int, rows: np.ndarray) -> np.ndarray:
    """x's kernel rows ex (N, C*K, (H+2P)*W_out), written into the first N maps of `rows`.

    rows is (M >= N, C, K, H+2P, W_out), W_out = W + 2P - K + 1, and ex[n, (c, kj), r*W_out + j]
    = x_pad[n, c, r, j + kj]: one copy of x's in-range rectangle per kj, and the border strips
    zeroed. For K = 1 and P = 0, ex is x's own contiguous maps and `rows` is not written (see
    module docstring).
    """
    n, c, h, w = x.shape
    if k == 1 and pad == 0:  # x's own maps are its one kernel row
        return x.reshape(n, c, h * w).astype(rows.dtype, copy=False)
    w_out = w + 2 * pad - k + 1
    ex = rows[:n]
    ex[:, :, :, :pad] = 0.0
    ex[:, :, :, pad + h :] = 0.0
    for kj in range(k):
        lo = min(max(pad - kj, 0), w_out)
        hi = max(min(w + pad - kj, w_out), lo)
        strip = ex[:, :, kj, pad : pad + h]
        strip[..., :lo] = 0.0
        strip[..., hi:] = 0.0
        strip[..., lo:hi] = x[..., lo + kj - pad : hi + kj - pad]
    return ex.reshape(n, c * k, -1)


def _row_conv(x: np.ndarray, w: np.ndarray, pad: int, b: np.ndarray | None) -> np.ndarray:
    """A fresh stride-1 correlation (N, C_out, H+2P-K+1, W+2P-K+1) of x (N, C_in, H, W) with w, plus b if given.

    On kernel rows, a block of maps at a time (see module docstring): a block's output starts
    as b and every kernel row's GEMM is added to it; without b, the first row's GEMM writes it.
    """
    n, _, h, wdt = x.shape
    c_out, c_in, k, _ = w.shape
    h_out, w_out = h + 2 * pad - k + 1, wdt + 2 * pad - k + 1
    size = h_out * w_out
    dtype = np.result_type(x, w)
    maps, rows_shape = _row_block(x.shape, k, pad, dtype)
    rows, acc = _workspace_arrays(dtype, rows_shape, (maps, c_out, size))
    w_rows = np.ascontiguousarray(w.transpose(2, 0, 1, 3), dtype).reshape(k, c_out, c_in * k)
    y = np.empty((n, c_out, h_out, w_out), dtype if b is None else np.result_type(dtype, b))
    y_flat = y.reshape(n, c_out, size)
    for start in range(0, n, maps):
        ex = _expand(x[start : start + maps], k, pad, rows)
        out, block_acc = y_flat[start : start + maps], acc[: len(ex)]
        if b is None:
            np.matmul(w_rows[0], ex[:, :, :size], out=out)
            first = 1
        else:
            out[...] = b[:, None]
            first = 0
        for ki in range(first, k):
            np.matmul(w_rows[ki], ex[:, :, ki * w_out : ki * w_out + size], out=block_acc)
            out += block_acc
    return y


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1, padding: str = "valid") -> np.ndarray:
    """Cross-correlation plus bias; x (C_in,H,W) or (N,C_in,H,W), w (C_out,C_in,K,K)."""
    x, w, b = _as_f32(x), _as_f32(w), _as_f32(b)
    xb, single = _batched(x, 3)
    c_out, _, _, pad = _conv_geometry(xb, w, stride, padding)
    if b.shape != (c_out,):
        raise InvalidArgument(f"bias must be ({c_out},), got {b.shape}")
    y = _row_conv(xb, w, pad, b)
    if stride > 1:  # the stride-1 output at every `stride`-th row and column
        y = np.ascontiguousarray(y[:, :, ::stride, ::stride])
    return y[0] if single else y


def conv2d_backward(
    dy: np.ndarray, x: np.ndarray, w: np.ndarray, stride: int = 1, padding: str = "valid",
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of conv2d for upstream dy; dx is None unless input_grad."""
    x, w, dy = _as_f32(x), _as_f32(w), _as_f32(dy)
    xb, single = _batched(x, 3)
    dyb, _ = _batched(dy, 3)
    c_out, h_out, w_out, pad = _conv_geometry(xb, w, stride, padding)
    if dyb.shape[1:] != (c_out, h_out, w_out):
        raise InvalidArgument(f"upstream must be (*, {c_out}, {h_out}, {w_out}), got {dyb.shape}")
    n, c_in, k = xb.shape[0], w.shape[1], w.shape[2]
    db = dyb.reshape(n, c_out, -1).sum(axis=(0, 2))
    if stride > 1:  # the stride-1 backward of dy spread `stride` apart
        spread = np.zeros(dyb.shape[:2] + ((h_out - 1) * stride + 1, (w_out - 1) * stride + 1), dyb.dtype)
        spread[:, :, ::stride, ::stride] = dyb
        dyb = spread
    row, size = dyb.shape[3], dyb.shape[2] * dyb.shape[3]  # the stride-1 output's width and size
    dtype = np.result_type(xb, w, dyb)
    maps, rows_shape = _row_block(xb.shape, k, pad, dtype)
    per_map, rows = _workspace_arrays(dtype, (maps + 1, c_out, c_in * k), rows_shape)
    dy_flat = dyb.reshape(n, c_out, size)
    dw = np.empty((k, c_out, c_in * k), dtype)
    for start in range(0, n, maps):
        ex = _expand(xb[start : start + maps], k, pad, rows)
        for ki in range(k):
            np.matmul(dy_flat[start : start + maps], ex[:, :, ki * row : ki * row + size].transpose(0, 2, 1),
                      out=per_map[1 : 1 + len(ex)])
            if start:  # the earlier maps' sum leads, so all N products add in map order
                per_map[0] = dw[ki]
            per_map[0 if start else 1 : 1 + len(ex)].sum(axis=0, out=dw[ki])
    dw = np.ascontiguousarray(dw.reshape(k, c_out, c_in, k).transpose(1, 2, 0, 3))
    if not input_grad:
        return None, dw, db
    # dw is formed, so dy's kernel rows may take x's workspace (see module docstring)
    dx = _row_conv(dyb, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), k - 1 - pad, None)
    return (dx[0] if single else dx), dw, db


def _transpose_matrix(w: np.ndarray) -> np.ndarray:
    """A 2x2 transposed conv's (C_in, C_out, 2, 2) weights as the (C_out*4, C_in) matrix, rows (o, di, dj)."""
    return w.transpose(1, 2, 3, 0).reshape(-1, w.shape[0])


def conv_transpose2x2(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2x2 stride-2 transposed conv (doubles H and W); w is (C_in, C_out, 2, 2).

    One GEMM gives every output's value at (o, di, dj) rows; four strided copies, one per
    quadrant (di, dj), interleave them.
    """
    x, w, b = _as_f32(x), _as_f32(w), _as_f32(b)
    xb, single = _batched(x, 3)
    if w.ndim != 4 or w.shape[2:] != (2, 2):
        raise InvalidArgument(f"weights must be (C_in, C_out, 2, 2), got {w.shape}")
    c_in, c_out = w.shape[:2]
    if xb.shape[1] != c_in:
        raise InvalidArgument(f"input has {xb.shape[1]} channels, weights expect {c_in}")
    if b.shape != (c_out,):
        raise InvalidArgument(f"bias must be ({c_out},), got {b.shape}")
    n, _, h, wdt = xb.shape
    dtype = np.result_type(xb, w)
    (rows,) = _workspace_arrays(dtype, (n, c_out * 4, h * wdt))
    np.matmul(_transpose_matrix(w), xb.reshape(n, c_in, -1), out=rows)
    y = np.empty((n, c_out, 2 * h, 2 * wdt), np.result_type(dtype, b))
    # rows[n, (o, di, dj), (i, j)] is y[n, o, 2i + di, 2j + dj]
    quads, y_quads = rows.reshape(n, c_out, 2, 2, h, wdt), y.reshape(n, c_out, h, 2, wdt, 2)
    for di, dj in _WINDOW_OFFSETS:
        y_quads[:, :, :, di, :, dj] = quads[:, :, di, dj]
    y += b[:, None, None]
    return y[0] if single else y


def conv_transpose2x2_backward(
    dy: np.ndarray, x: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dw, db): dy de-interleaved into (o, di, dj) rows by one copy, then one GEMM each for dx and dw."""
    x, w, dy = _as_f32(x), _as_f32(w), _as_f32(dy)
    xb, single = _batched(x, 3)
    dyb, _ = _batched(dy, 3)
    c_in, c_out = w.shape[:2]
    n, _, h, wdt = xb.shape
    if dyb.shape[1:] != (c_out, 2 * h, 2 * wdt):
        raise InvalidArgument(f"upstream shape {dyb.shape} does not match doubled input {xb.shape}")
    dtype = np.result_type(xb, w, dyb)
    (rows,) = _workspace_arrays(dtype, (n, c_out * 4, h * wdt))
    # one copy reads dy's quadrants faster than four (BENCH_28.json)
    np.copyto(rows.reshape(n, c_out, 2, 2, h, wdt), dyb.reshape(n, c_out, h, 2, wdt, 2).transpose(0, 1, 3, 5, 2, 4))
    dx = np.matmul(_transpose_matrix(w).T, rows).reshape(xb.shape)
    dw = np.matmul(rows, xb.reshape(n, c_in, -1).transpose(0, 2, 1)).sum(axis=0)
    dw = np.ascontiguousarray(dw.reshape(c_out, 2, 2, c_in).transpose(3, 0, 1, 2))
    db = dyb.sum(axis=(0, 2, 3))
    return (dx[0] if single else dx), dw, db


def _pool_windows(xb: np.ndarray) -> list[np.ndarray]:
    """The four strided views of 2x2 windows, in row-major tie-break order."""
    h2, w2 = xb.shape[2] // 2, xb.shape[3] // 2
    return [xb[:, :, di : 2 * h2 : 2, dj : 2 * w2 : 2] for di, dj in _WINDOW_OFFSETS]


def _window_max(views: list[np.ndarray]) -> np.ndarray:
    y = np.maximum(views[0], views[1])
    np.maximum(y, views[2], out=y)
    np.maximum(y, views[3], out=y)
    return y


def maxpool2x2(x: np.ndarray) -> np.ndarray:
    """Per-window max over 2x2 tiles; odd trailing row/column dropped."""
    x = _as_float(x)
    xb, single = _batched(x, 3)
    y = _window_max(_pool_windows(xb))
    return y[0] if single else y


def _bits(a: np.ndarray) -> np.ndarray:
    """A float32 or float64 array viewed as integers of the same width."""
    return a.view(np.int64 if a.dtype == np.float64 else np.int32)


def _masked(dy: np.ndarray, keep: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """dy's bits where `keep` (broadcast), +0.0's bits elsewhere: dy's integer view times keep."""
    return np.multiply(_bits(dy), keep, out=out)


def _pool_backward(dy: np.ndarray, x: np.ndarray, y: np.ndarray | None, positive_only: bool) -> np.ndarray:
    """Routes dy to each window's first max of x, only where that max is above 0 if `positive_only`.

    y is maxpool2x2(x) (or, if `positive_only`, its ReLU) as the caller kept it, else None and formed here.
    """
    x = _as_float(x)
    xb, single = _batched(x, 3)
    dyb, _ = _batched(np.ascontiguousarray(dy, dtype=x.dtype), 3)
    h2, w2 = xb.shape[2] // 2, xb.shape[3] // 2
    if dyb.shape != (*xb.shape[:2], h2, w2):
        raise InvalidArgument(f"upstream shape {dyb.shape} does not match pooled {xb.shape}")
    views = _pool_windows(xb)
    if y is None:
        y = _window_max(views)
    else:
        y, _ = _batched(np.asarray(y, x.dtype), 3)
        if y.shape != dyb.shape:
            raise InvalidArgument(f"window max shape {y.shape} does not match pooled {xb.shape}")
    unclaimed = y > 0 if positive_only else np.ones(y.shape, dtype=bool)
    dx = np.empty(xb.shape, xb.dtype)
    dx[:, :, 2 * h2 :] = 0.0
    dx[:, :, :, 2 * w2 :] = 0.0
    for view, dx_bits in zip(views, _pool_windows(_bits(dx))):
        hit = view == y
        hit &= unclaimed
        _masked(dyb, hit, out=dx_bits)
        unclaimed ^= hit
    return dx[0] if single else dx


def maxpool2x2_backward(dy: np.ndarray, x: np.ndarray, pooled: np.ndarray | None = None) -> np.ndarray:
    """Routes dy to each window's first max in row-major order (see module docstring).

    pooled is the forward's maxpool2x2(x) if the caller kept it; without it, the window maxima are formed again.
    """
    return _pool_backward(dy, x, pooled, positive_only=False)


def relu_maxpool2x2_backward(dy: np.ndarray, z: np.ndarray, pooled: np.ndarray) -> np.ndarray:
    """Gradient of maxpool2x2(relu(z)) in one pass, given the forward's pooled z (see module docstring)."""
    return _pool_backward(dy, z, pooled, positive_only=True)


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), written into `out` if given (x itself for a ReLU in place)."""
    return np.maximum(_as_f32(x), 0.0, out=out)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    dy = _as_f32(dy)
    return _masked(dy, np.asarray(x) > 0).view(dy.dtype)


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map W x + b of one row; w is (N_out, N_in), x is (N_in,)."""
    x, w, b = _as_f32(x), _as_f32(w), _as_f32(b)
    if x.ndim != 1 or w.ndim != 2 or x.shape[0] != w.shape[1] or b.shape != (w.shape[0],):
        raise InvalidArgument(f"dense shapes x={x.shape} w={w.shape} b={b.shape}")
    return x @ w.T + b


def dense_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dw, db) of one row: dw is the outer product dy x^T, db is dy itself."""
    x, w, dy = _as_f32(x), _as_f32(w), _as_f32(dy)
    if dy.ndim != 1 or x.ndim != 1 or w.shape != (dy.shape[0], x.shape[0]):
        raise InvalidArgument(f"dense_backward shapes dy={dy.shape} x={x.shape} w={w.shape}")
    return dy @ w, np.outer(dy, x), dy


def dropout(x: np.ndarray, rate: float, mode: str, rng: Rng | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout. Returns (y, mask); backward reuses the mask.

    Train mode zeroes each unit with probability `rate` and scales
    survivors by 1/(1-rate); eval mode is the identity.
    """
    x = _as_f32(x)
    if not 0.0 <= rate < 1.0:
        raise InvalidArgument(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise InvalidArgument(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return x, np.ones_like(x)
    if rng is None:
        raise InvalidArgument("train-mode dropout needs an explicit rng stream")
    mask = (rng.uniform(x.shape) >= rate).astype(x.dtype)
    return x * mask / (1.0 - rate), mask


def dropout_backward(dy: np.ndarray, mask: np.ndarray, rate: float) -> np.ndarray:
    dy = _as_f32(dy)
    return dy * np.asarray(mask, dy.dtype) / (1.0 - rate)


def sigmoid(x: np.ndarray) -> np.ndarray:
    x_in = np.asarray(x)
    x_arr = x_in.astype(np.float64)
    e = np.exp(-np.abs(x_arr))
    out = np.where(x_arr >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out.astype(np.float64 if x_in.dtype == np.float64 else np.float32)


def sigmoid_backward(dy: np.ndarray | float, y: np.ndarray | float) -> np.ndarray | float:
    return dy * y * (1.0 - y)
