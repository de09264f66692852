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

Same-padded convs on taps: a same-padded conv with K > 1 and C_in > 1
builds no columns; it sums one GEMM per kernel tap instead (kn2row,
Anderson et al. 2017, arXiv:1709.03395). It copies x once into the
interior of a zeroed grid (N, C_in, H+2P, W+2P). Read flat per map, the
input that tap (ki, kj) weighs for output (i, j) is at q + ki*(W+2P) + kj,
where q = i*(W+2P) + j. So over the run q < span = (H-1)*(W+2P) + W, the
outputs are the sum, over taps in row-major order, of the GEMMs
w[:, :, ki, kj] @ grid[n, :, off : off + span], off = ki*(W+2P) + kj; the
run's 2P junk entries per row (j >= W) are cropped away when the output is
copied out. Each map gets GEMMs of its own, so a batch item's result is
its one-item result bit for bit. Backward puts dy on a grid the same way:
dw[:, :, ki, kj] is the sum over maps of dy's run times the transpose of
tap (ki, kj)'s run of x, and dx is the tap kernel run on dy's grid with
the kernel flipped in both spatial axes and its two channel axes swapped.

Columns for the rest: valid convs (the classifier's, the 1x1 head) and
same-padded ones with C_in = 1 or K = 1 build im2col columns and run one
GEMM. A tap GEMM over one input channel is a K = 1 product, which OpenBLAS
runs far slower than the columns cost to build. `_im2col` (any padding,
any stride) is one `np.copyto` from a read-only strided view of the input,
indexed (n, c, ki, kj, i, j), into the columns; with padding it first
copies its input into the interior of a zeroed padded array, which lives
only until `_im2col` returns.

Input gradients of column convs as a conv of dy: dx is formed as the
forward forms y, with `_im2col` and one GEMM. dx is dy, spread `stride`
apart into a zeroed array when stride > 1, zero-padded by K - 1 - P and
correlated with the kernel flipped in both spatial axes and its two
channel axes swapped (Dumoulin & Visin 2016, arXiv:1603.07285): dx[c, r, s]
is the sum over o, ki, kj of
dy_spread[o, r + ki - (K-1-P), s + kj - (K-1-P)] * w[o, c, K-1-ki, K-1-kj],
reading zero outside dy_spread. Order: `conv2d_backward` forms dw from x's
columns before it builds dy's, since without caller-owned columns both
sets live in the same workspace buffer and dy's overwrite x's.

The 2x2 transposed conv is one GEMM of the (C_out*4, C_in) weight matrix,
rows (o, di, dj), against each map, plus one copy that interleaves those
rows into the doubled output. Its backward de-interleaves dy into such
rows with one copy, then forms dx with one GEMM against the same matrix
and dw with one GEMM of the rows against each map of x.

Workspace: grids, tap sums, transposed-conv rows and columns are carved
from one grow-only workspace buffer per dtype and per thread, instead of
fresh arrays per call (1.5 MB of columns for a 128 px first layer, which
the allocator would otherwise hand back to the system and page in again
on every call). Lifetime rule: they live only until the kernel that
carved them returns. A kernel carves all it needs in one call, except a
column backward, which builds dy's columns over x's once dw is formed. No
kernel returns or keeps them, and every returned array is freshly
allocated, so no output aliases the buffer. The buffer keeps the size of
the largest set the thread has carved.
Caller-owned columns, valid padding only: `conv2d(..., cols=buf)` builds
the columns in the caller's contiguous (N, C_in*K*K, H_out*W_out) array
instead, and `conv2d_backward(dy, x, w, ..., cols=buf)` then takes them as
x's columns instead of building its own. They live as long as the caller
keeps them; the caller must pass them only with the x that built them,
before filling them again.
"""
from __future__ import annotations

import math
import threading

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


def _check_columns(cols: np.ndarray, x: np.ndarray, k: int, h_out: int, w_out: int, pad: int) -> None:
    """Reject caller-owned columns that do not fit x's conv, or any padded conv."""
    if pad:
        raise InvalidArgument("caller-owned columns are for valid padding only")
    shape = (x.shape[0], x.shape[1] * k * k, h_out * w_out)
    if cols.shape != shape or cols.dtype != x.dtype or not cols.flags.c_contiguous:
        raise InvalidArgument(f"columns must be a contiguous {x.dtype} array of shape {shape}, "
                              f"got {cols.dtype} {cols.shape}")


def _im2col(x: np.ndarray, k: int, stride: int, h_out: int, w_out: int, pad: int,
            out: np.ndarray | None = None) -> np.ndarray:
    """Columns (N, C*K*K, H_out*W_out) in `out`, or else in the workspace (see module docstring).

    x is the unpadded input. With padding it is first copied into the interior of
    a zeroed padded array; the columns are then one copy of a strided view of that.
    """
    n, c, h, w = x.shape
    if out is None:
        (cols,) = _workspace_arrays(x.dtype, (n, c, k, k, h_out, w_out))
    else:
        cols = out.reshape(n, c, k, k, h_out, w_out)
    if pad:
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), x.dtype)
        padded[:, :, pad : pad + h, pad : pad + w] = x
        x = padded
    sn, sc, sh, sw = x.strides
    np.copyto(cols, as_strided(x, cols.shape, (sn, sc, sh, sw, sh * stride, sw * stride), writeable=False))
    return cols.reshape(n, c * k * k, h_out * w_out)


def _uses_taps(padding: str, k: int, c_in: int) -> bool:
    """Whether a conv runs the tap kernel (see module docstring) rather than building columns."""
    return padding == "same" and k > 1 and c_in > 1


def _fill_grid(grid: np.ndarray, x: np.ndarray) -> None:
    """Copy x (N, C, H, W) into the interior of grid (N, C, H+2P, W+2P) and zero its border."""
    pad = (grid.shape[2] - x.shape[2]) // 2
    grid.fill(0.0)
    grid[:, :, pad : pad + x.shape[2], pad : pad + x.shape[3]] = x


def _tap_conv(taps: np.ndarray, grid: np.ndarray, acc: np.ndarray, product: np.ndarray,
              dtype: np.dtype) -> np.ndarray:
    """A fresh (N, C_out, H, W) same-padded correlation of the maps on grid (N, C_in, H+2P, W+2P).

    taps is (K, K, C_out, C_in); acc and product are (N, C_out, span) workspace views,
    product holding each later tap's GEMM (see module docstring).
    """
    k, span, row = taps.shape[0], acc.shape[2], grid.shape[3]
    flat = grid.reshape(*grid.shape[:2], -1)
    for ki in range(k):
        for kj in range(k):
            shifted = flat[:, :, ki * row + kj :][:, :, :span]
            if ki == kj == 0:
                np.matmul(taps[0, 0], shifted, out=acc)
            else:
                np.matmul(taps[ki, kj], shifted, out=product)
                acc += product
    n, c, _ = acc.shape
    out = np.empty((n, c, grid.shape[2] - k + 1, row - k + 1), dtype)
    np.copyto(out, as_strided(acc, out.shape, (*acc.strides[:2], row * acc.itemsize, acc.itemsize),
                              writeable=False))
    return out


def _tap_shapes(x: np.ndarray, k: int) -> tuple[int, int, int]:
    """(H+2P, W+2P, span) of a same-padded conv of x with kernel K: a padded map, and its flat run of outputs."""
    h, w = x.shape[2:]
    return h + k - 1, w + k - 1, (h - 1) * (w + k - 1) + w


def _conv_geometry(x: np.ndarray, w: np.ndarray, stride: int, padding: str):
    """(c_out, c_in, k, h_out, w_out, pad) of a conv, after checking every shape."""
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
    return c_out, c_in, k, h_out, w_out, pad


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1, padding: str = "valid",
           cols: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlation plus bias; x (C_in,H,W) or (N,C_in,H,W), w (C_out,C_in,K,K).

    With `cols` (N, C_in*K*K, H_out*W_out), valid padding only, the columns are
    built there, for the caller to pass to `conv2d_backward` (see module docstring).
    """
    x, w, b = _as_f32(x), _as_f32(w), _as_f32(b)
    xb, single = _batched(x, 3)
    c_out, c_in, k, h_out, w_out, pad = _conv_geometry(xb, w, stride, padding)
    if b.shape != (c_out,):
        raise InvalidArgument(f"bias must be ({c_out},), got {b.shape}")
    if cols is not None:
        _check_columns(cols, xb, k, h_out, w_out, pad)
    if _uses_taps(padding, k, c_in):
        n = xb.shape[0]
        hp, wp, span = _tap_shapes(xb, k)
        grid, acc, product = _workspace_arrays(
            np.result_type(xb, w), (n, c_in, hp, wp), (n, c_out, span), (n, c_out, span))
        _fill_grid(grid, xb)
        y = _tap_conv(w.transpose(2, 3, 0, 1), grid, acc, product, np.result_type(grid, b))
    else:
        cols = _im2col(xb, k, stride, h_out, w_out, pad, cols)
        y = np.matmul(w.reshape(c_out, -1), cols).reshape(xb.shape[0], c_out, h_out, w_out)
        y = y.astype(np.result_type(y, b), copy=False)
    y += b[:, None, None]  # in place: no second output-sized temporary
    return y[0] if single else y


def conv2d_backward(
    dy: np.ndarray, x: np.ndarray, w: np.ndarray, stride: int = 1, padding: str = "valid",
    input_grad: bool = True, cols: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of conv2d for upstream dy; dx is None unless input_grad.

    `cols` are x's columns as a `conv2d(..., cols=cols)` call built them; given, they are not rebuilt.
    """
    x, w, dy = _as_f32(x), _as_f32(w), _as_f32(dy)
    xb, single = _batched(x, 3)
    dyb, _ = _batched(dy, 3)
    c_out, c_in, k, h_out, w_out, pad = _conv_geometry(xb, w, stride, padding)
    if dyb.shape[1:] != (c_out, h_out, w_out):
        raise InvalidArgument(f"upstream must be (*, {c_out}, {h_out}, {w_out}), got {dyb.shape}")
    if cols is not None:
        _check_columns(cols, xb, k, h_out, w_out, pad)
    dy_mat = dyb.reshape(dyb.shape[0], c_out, -1)
    db = dy_mat.sum(axis=(0, 2))
    if _uses_taps(padding, k, c_in):
        dx, dw = _tap_backward(dyb, xb, w, input_grad)
        return (dx[0] if single and input_grad else dx), dw, db

    if cols is None:
        cols = _im2col(xb, k, stride, h_out, w_out, pad)
    dw = np.matmul(dy_mat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    if not input_grad:
        return None, dw, db
    # dx is dy, spread `stride` apart, correlated with the flipped kernel (see module
    # docstring); dw is already formed, so dy's columns may take x's workspace
    if stride > 1:
        spread = np.zeros(dyb.shape[:2] + ((h_out - 1) * stride + 1, (w_out - 1) * stride + 1), dyb.dtype)
        spread[:, :, ::stride, ::stride] = dyb
        dyb = spread
    w_flip = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)).reshape(c_in, -1)
    dx = np.matmul(w_flip, _im2col(dyb, k, 1, *xb.shape[2:], k - 1 - pad)).reshape(xb.shape)
    return (dx[0] if single else dx), dw, db


def _tap_backward(dyb: np.ndarray, xb: np.ndarray, w: np.ndarray,
                  input_grad: bool) -> tuple[np.ndarray | None, np.ndarray]:
    """(dx, dw) of a batched same-padded conv on the tap kernel, x and dy each on a grid (see module docstring)."""
    c_out, c_in, k, _ = w.shape
    n = xb.shape[0]
    hp, wp, span = _tap_shapes(xb, k)
    grid, dy_grid, acc, product, per_map = _workspace_arrays(
        np.result_type(xb, w, dyb), (n, c_in, hp, wp), (n, c_out, hp, wp), (n, c_in, span), (n, c_in, span),
        (n, c_out, c_in))
    _fill_grid(grid, xb)
    _fill_grid(dy_grid, dyb)
    # output q's dy sits at q + first on its grid, tap (ki, kj)'s input at q + ki*(W+2P) + kj
    first = (k - 1) // 2 * (wp + 1)
    dy_flat = dy_grid.reshape(n, c_out, -1)[:, :, first : first + span]
    x_flat = grid.reshape(n, c_in, -1)
    dw = np.empty((k, k, c_out, c_in), grid.dtype)
    for ki in range(k):
        for kj in range(k):
            np.matmul(dy_flat, x_flat[:, :, ki * wp + kj :][:, :, :span].transpose(0, 2, 1), out=per_map)
            per_map.sum(axis=0, out=dw[ki, kj])
    dw = np.ascontiguousarray(dw.transpose(2, 3, 0, 1))
    if not input_grad:
        return None, dw
    dx = _tap_conv(w[:, :, ::-1, ::-1].transpose(2, 3, 1, 0), dy_grid, acc, product, acc.dtype)
    return dx, dw


def _transpose_matrix(w: np.ndarray) -> np.ndarray:
    """A 2x2 transposed conv's (C_in, C_out, 2, 2) weights as the (C_out*4, C_in) matrix, rows (o, di, dj)."""
    return w.transpose(1, 2, 3, 0).reshape(-1, w.shape[0])


def conv_transpose2x2(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2x2 stride-2 transposed conv (doubles H and W); w is (C_in, C_out, 2, 2).

    One GEMM gives every output's value at (o, di, dj) rows; one copy interleaves them.
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
    np.copyto(y.reshape(n, c_out, h, 2, wdt, 2), rows.reshape(n, c_out, 2, 2, h, wdt).transpose(0, 1, 4, 2, 5, 3))
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
    x = _as_f32(x)
    xb, single = _batched(x, 3)
    y = _window_max(_pool_windows(xb))
    return y[0] if single else y


def maxpool2x2_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Routes dy to each window's first max in row-major order (see module docstring)."""
    x, dy = _as_f32(x), _as_f32(dy)
    xb, single = _batched(x, 3)
    dyb, _ = _batched(dy, 3)
    if dyb.shape[1:] != (xb.shape[1], xb.shape[2] // 2, xb.shape[3] // 2):
        raise InvalidArgument(f"upstream shape {dyb.shape} does not match pooled {xb.shape}")
    views = _pool_windows(xb)
    y = _window_max(views)
    dx = np.zeros_like(xb)
    unclaimed = np.ones(y.shape, dtype=bool)
    for view, dx_view in zip(views, _pool_windows(dx)):
        hit = view == y
        hit &= unclaimed
        np.copyto(dx_view, dyb, where=hit)
        unclaimed ^= hit
    return dx[0] if single else dx


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(_as_f32(x), 0.0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    dy = _as_f32(dy)
    return np.where(np.asarray(x) > 0, dy, dy.dtype.type(0.0))


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
