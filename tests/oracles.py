"""Independent numerical oracles used to freeze expected values.

These deliberately avoid the package's analytic gradient paths: gradients
come from central finite differences, circuit states from dense matrix
products built with numpy.kron.
"""
from __future__ import annotations

import numpy as np

from cqbrain.diffusion import sample
from cqbrain.neuralkernel import Params
from cqbrain.pipeline.checkpoint import load_checkpoint
from cqbrain.pipeline.modelio import unpack_predictor
from cqbrain.rng import _MASK64, _MIX1, _MIX2, Rng
from cqbrain.volio import Image2D, Plane, resize_bilinear, write_pgm


def params_of(tensors, dtype=np.float32) -> Params:
    """A copy of the named `tensors` in one new `Params` vector."""
    out = Params({name: np.shape(t) for name, t in tensors.items()}, dtype)
    for name, t in tensors.items():
        out[name] = t
    return out


def with_float64_params(unet):
    """`unet` with its parameter vector swapped for a float64 copy (full-precision FD checks)."""
    unet._params = params_of(unet.params(), np.float64)
    return unet


def finite_difference_grad(f, x: np.ndarray, h_scale: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar f(x), differencing in place.

    Uses the actually-represented step (x+h) - (x-h) as the denominator to
    cancel float32 rounding of the perturbation itself.
    """
    x = np.asarray(x)
    grad = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        h = h_scale * max(1.0, abs(float(orig)))
        flat[i] = orig + h
        hi_val = float(flat[i])
        f_hi = f(x)
        flat[i] = orig - h
        lo_val = float(flat[i])
        f_lo = f(x)
        flat[i] = orig
        gflat[i] = (f_hi - f_lo) / (hi_val - lo_val)
    return grad


def finite_difference_grad_at(f, x: np.ndarray, flat_indices, h_scale: float = 1e-3) -> dict[int, float]:
    """Central differences at selected flat indices only (for large tensors)."""
    x = np.asarray(x)
    flat = x.reshape(-1)
    out = {}
    for i in flat_indices:
        orig = flat[i]
        h = h_scale * max(1.0, abs(float(orig)))
        flat[i] = orig + h
        hi_val = float(flat[i])
        f_hi = f(x)
        flat[i] = orig - h
        lo_val = float(flat[i])
        f_lo = f(x)
        flat[i] = orig
        out[int(i)] = (f_hi - f_lo) / (hi_val - lo_val)
    return out


def grads_close(analytic: np.ndarray, numeric: np.ndarray, tol: float) -> bool:
    """Relative agreement |a - b| <= tol * max(1, |a|, |b|), elementwise."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return bool((np.abs(a - b) <= tol * denom).all())


def separated_values(rng: np.random.Generator, shape: tuple[int, ...], gap: float = 0.05) -> np.ndarray:
    """Random array whose entries are pairwise separated by at least `gap`.

    Keeps finite differences away from max-pool ties and ReLU kinks.
    """
    n = int(np.prod(shape))
    base = (np.arange(n) - n / 2.0 + 0.25) * gap * 2.0  # off-grid: never exactly 0
    return base[rng.permutation(n)].reshape(shape).astype(np.float32)


def dense_gate_matrix(kind: str, n: int, qubits: tuple[int, ...], angle: float | None) -> np.ndarray:
    """Full 2^n x 2^n unitary of one gate, built by explicit basis bookkeeping."""
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=np.complex128)
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    for col in range(dim):
        bits = [(col >> q) & 1 for q in range(n)]
        if kind == "h":
            (q,) = qubits
            for out_bit in (0, 1):
                row = (col & ~(1 << q)) | (out_bit << q)
                mat[row, col] += h[out_bit, bits[q]]
        elif kind == "p":
            (q,) = qubits
            mat[col, col] = np.exp(1j * angle) if bits[q] else 1.0
        elif kind == "cz":
            q1, q2 = qubits
            mat[col, col] = -1.0 if bits[q1] and bits[q2] else 1.0
        elif kind == "zz":
            q1, q2 = qubits
            mat[col, col] = np.exp(1j * angle) if bits[q1] ^ bits[q2] else 1.0
        elif kind == "ry":
            (q,) = qubits
            c, s = np.cos(angle / 2), np.sin(angle / 2)
            ry = np.array([[c, -s], [s, c]], dtype=np.complex128)
            for out_bit in (0, 1):
                row = (col & ~(1 << q)) | (out_bit << q)
                mat[row, col] += ry[out_bit, bits[q]]
        else:
            raise ValueError(kind)
    return mat


def dense_circuit_state(n: int, ops: list[tuple]) -> np.ndarray:
    """Apply ops (kind, qubits, angle) to |0...0> via dense matrix products."""
    state = np.zeros(2**n, dtype=np.complex128)
    state[0] = 1.0
    for kind, qubits, angle in ops:
        state = dense_gate_matrix(kind, n, qubits, angle) @ state
    return state


def maxpool2x2_backward_argmax(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Max-pool gradient routed by argmax over the stacked 2x2 windows.

    argmax returns the first maximum, so ties go to the row-major first
    element of the window; odd trailing rows/columns get zero gradient.
    """
    x = np.asarray(x)
    dy = np.asarray(dy, dtype=x.dtype)
    single = x.ndim == 3
    xb, dyb = (x[None], dy[None]) if single else (x, dy)
    h2, w2 = xb.shape[2] // 2, xb.shape[3] // 2
    offsets = ((0, 0), (0, 1), (1, 0), (1, 1))
    stack = np.stack([xb[:, :, di : 2 * h2 : 2, dj : 2 * w2 : 2] for di, dj in offsets])
    winner = stack.argmax(axis=0)
    dx = np.zeros_like(xb)
    for idx, (di, dj) in enumerate(offsets):
        np.copyto(dx[:, :, di : 2 * h2 : 2, dj : 2 * w2 : 2], dyb, where=(winner == idx))
    return dx[0] if single else dx


def maxpool2x2_backward_copyto(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`neuralkernel.maxpool2x2_backward` in its select form: dy copied where a view first holds the max."""
    x = np.asarray(x)
    single = x.ndim == 3
    xb, dyb = (x[None], np.asarray(dy)[None]) if single else (x, np.asarray(dy))
    h2, w2 = xb.shape[2] // 2, xb.shape[3] // 2
    offsets = ((0, 0), (0, 1), (1, 0), (1, 1))
    views = [xb[:, :, di : 2 * h2 : 2, dj : 2 * w2 : 2] for di, dj in offsets]
    y = np.maximum(np.maximum(np.maximum(views[0], views[1]), views[2]), views[3])
    dx = np.zeros_like(xb)
    unclaimed = np.ones(y.shape, dtype=bool)
    for view, (di, dj) in zip(views, offsets):
        hit = (view == y) & unclaimed
        np.copyto(dx[:, :, di : 2 * h2 : 2, dj : 2 * w2 : 2], dyb, where=hit)
        unclaimed &= ~hit
    return dx[0] if single else dx


def relu_backward_where(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`neuralkernel.relu_backward` in its select form: dy where x > 0, +0.0 elsewhere."""
    dy = np.asarray(dy)
    return np.where(np.asarray(x) > 0, dy, dy.dtype.type(0.0))


def _conv_operands(*arrays: np.ndarray) -> list[np.ndarray]:
    """float64 stays float64, everything else computes in float32 (as the kernels do)."""
    out = []
    for a in arrays:
        a = np.asarray(a)
        out.append(np.ascontiguousarray(a, dtype=np.float64 if a.dtype == np.float64 else np.float32))
    return out


def col2im_taps(dcols: np.ndarray, x_shape: tuple, k: int, stride: int, h_out: int, w_out: int) -> np.ndarray:
    """Valid-padded col2im: each tap's rectangle added into a zeroed dx, taps in row-major order."""
    n, c = x_shape[:2]
    dcols = dcols.reshape(n, c, k, k, h_out, w_out)
    dx = np.zeros(x_shape, dcols.dtype)
    for ki in range(k):
        for kj in range(k):
            dx[:, :, ki : ki + stride * h_out : stride, kj : kj + stride * w_out : stride] += dcols[:, :, ki, kj]
    return dx


def conv2d_same_taps(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 conv2d in float64: the bias plus each tap's product with an np.pad copy of x, tap by tap."""
    x, w, b = (np.asarray(a, np.float64) for a in (x, w, b))
    single = x.ndim == 3
    xb = x[None] if single else x
    k, (h, wdt) = w.shape[2], xb.shape[2:]
    p = (k - 1) // 2
    xp = np.pad(xb, ((0, 0), (0, 0), (p, p), (p, p)))
    y = np.zeros((xb.shape[0], w.shape[0], h, wdt)) + b[:, None, None]
    for ki in range(k):
        for kj in range(k):
            y += np.einsum("oc,nchw->nohw", w[:, :, ki, kj], xp[:, :, ki : ki + h, kj : kj + wdt])
    return y[0] if single else y


def conv2d_same_taps_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    """(dx, dw, db) of `conv2d_same_taps` in float64, tap by tap: dx is added up on a padded map, then cropped."""
    dy, x, w = (np.asarray(a, np.float64) for a in (dy, x, w))
    single = x.ndim == 3
    xb, dyb = (x[None], dy[None]) if single else (x, dy)
    k, (h, wdt) = w.shape[2], xb.shape[2:]
    p = (k - 1) // 2
    xp = np.pad(xb, ((0, 0), (0, 0), (p, p), (p, p)))
    dxp = np.zeros_like(xp)
    dw = np.empty_like(w)
    for ki in range(k):
        for kj in range(k):
            dw[:, :, ki, kj] = np.einsum("nohw,nchw->oc", dyb, xp[:, :, ki : ki + h, kj : kj + wdt])
            dxp[:, :, ki : ki + h, kj : kj + wdt] += np.einsum("oc,nohw->nchw", w[:, :, ki, kj], dyb)
    dx = dxp[:, :, p : p + h, p : p + wdt]
    return (dx[0] if single else dx), dw, dyb.sum(axis=(0, 2, 3))


def conv_transpose2x2_einsum(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2x2 stride-2 transposed conv, one einsum per output offset (di, dj); w is (C_in, C_out, 2, 2)."""
    single = x.ndim == 3
    xb = x[None] if single else x
    n, _, h, wdt = xb.shape
    y = np.zeros((n, w.shape[1], 2 * h, 2 * wdt), dtype=np.result_type(xb, w))
    for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
        y[:, :, di::2, dj::2] = np.einsum("io,nihw->nohw", w[:, :, di, dj], xb)
    y += b[:, None, None]
    return y[0] if single else y


def conv_transpose2x2_einsum_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    """(dx, dw, db) of `conv_transpose2x2_einsum`, one einsum each per output offset."""
    single = x.ndim == 3
    xb, dyb = (x[None], dy[None]) if single else (x, dy)
    dx = np.zeros(xb.shape, np.result_type(xb, w, dyb))
    dw = np.zeros(w.shape, dx.dtype)
    for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
        dy_sub = dyb[:, :, di::2, dj::2]
        dx += np.einsum("io,nohw->nihw", w[:, :, di, dj], dy_sub)
        dw[:, :, di, dj] = np.einsum("nihw,nohw->io", xb, dy_sub)
    return (dx[0] if single else dx), dw, dyb.sum(axis=(0, 2, 3))


def kernel_rows(padded: np.ndarray, k: int) -> np.ndarray:
    """Kernel rows (N, C*K, H_p*W_out) of an already padded map: row (c, kj) is channel c shifted left by kj.

    W_out = W_p - K + 1; one slice copy per kj.
    """
    n, c, hp, wp = padded.shape
    w_out = wp - k + 1
    ex = np.empty((n, c, k, hp, w_out), padded.dtype)
    for kj in range(k):
        ex[:, :, kj] = padded[:, :, :, kj : kj + w_out]
    return ex.reshape(n, c * k, hp * w_out)


def conv2d_rows(padded: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Stride-1 correlation of a padded map with w, plus b: one GEMM per kernel row ki against `kernel_rows`.

    The sum starts at b if given, else at row 0's GEMM, and adds the other rows' GEMMs in ki order.
    """
    c_out, _, k, _ = w.shape
    n, _, hp, wp = padded.shape
    h_out, w_out = hp - k + 1, wp - k + 1
    ex, size = kernel_rows(padded, k), h_out * w_out
    rows = [np.ascontiguousarray(w[:, :, ki]).reshape(c_out, -1) for ki in range(k)]  # BLAS sees one layout
    if b is None:
        y = np.matmul(rows[0], ex[:, :, :size])
    else:
        y = np.empty((n, c_out, size), np.result_type(padded, w, b))
        y[...] = b[:, None]
        y += np.matmul(rows[0], ex[:, :, :size])
    for ki in range(1, k):
        y += np.matmul(rows[ki], ex[:, :, ki * w_out : ki * w_out + size])
    return y.reshape(n, c_out, h_out, w_out)


def conv2d_input_grad(dy: np.ndarray, w: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """dx of a conv with `stride` and padding `pad`, as a correlation of dy with the flipped kernel.

    dy (N, C_out, H_out, W_out) is spread `stride` apart into zeros, np.pad-ed by
    K - 1 - pad, and correlated by `conv2d_rows` with the kernel flipped in both
    spatial axes and its channel axes swapped.
    """
    dy, w = _conv_operands(dy, w)
    n, c_out, h_out, w_out = dy.shape
    k = w.shape[2]
    spread = np.zeros((n, c_out, (h_out - 1) * stride + 1, (w_out - 1) * stride + 1), dy.dtype)
    spread[:, :, ::stride, ::stride] = dy
    q = k - 1 - pad
    padded = np.pad(spread, ((0, 0), (0, 0), (q, q), (q, q)))
    return conv2d_rows(padded, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))


def col2im_padded(dcols: np.ndarray, x_shape: tuple, k: int) -> np.ndarray:
    """Same-padded col2im: every tap added into a zero-padded buffer, then the interior sliced out."""
    n, c, h, w = x_shape
    p = (k - 1) // 2
    return col2im_taps(dcols, (n, c, h + 2 * p, w + 2 * p), k, 1, h, w)[:, :, p : p + h, p : p + w]


# -- per-tensor Adam (the reference for neuralkernel.optim) ----------------
#
# The rule computes with ordinary expressions, one tensor at a time, and
# keeps its own state per tensor; `reference_step` walks a parameter dict
# in sorted-name order the way the optimizer did before it held one flat
# vector.

def adam_step(param, grad, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    state["t"] = t = state.get("t", 0) + 1
    m = beta1 * state.get("m", np.zeros_like(param)) + (1.0 - beta1) * grad
    v = beta2 * state.get("v", np.zeros_like(param)) + (1.0 - beta2) * np.square(grad)
    state["m"], state["v"] = m.astype(param.dtype), v.astype(param.dtype)
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return (param - lr * m_hat / (np.sqrt(v_hat) + eps)).astype(param.dtype)


def reference_step(params: dict, grads: dict, states: dict, lr: float) -> None:
    """One Adam update of every tensor in `params`, in place, keeping per-tensor state in `states`."""
    for key in sorted(params):
        params[key][...] = adam_step(params[key], grads[key], states.setdefault(key, {}), lr)


# -- scalar SplitMix64 (the reference for rng's one-element-array keys) ---

def finalize_scalar(x: int) -> int:
    """SplitMix64 output function on a Python int, wrapped to 64 bits."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def whole_field_slice(vol, plane, index: int):
    """`volio.extract_slice` as it was when parsing built the whole float32 field up front.

    The field is the stored voxels as float32, times the slope plus the
    intercept (not in place) when the slope is nonzero; the slice is cut from
    it and min-max normalized the same way.
    """
    field = vol.raw.astype(np.float32)
    if vol.scl_slope != 0.0:
        field = field * np.float32(vol.scl_slope) + np.float32(vol.scl_inter)
    g = field.reshape(vol.nz, vol.ny, vol.nx)
    if plane is Plane.AXIAL:
        arr = g[index]
    elif plane is Plane.CORONAL:
        arr = g[:, :, index]
    else:
        arr = g[:, index, :].T
    lo = float(arr.min())
    hi = float(arr.max())
    arr = (arr - lo) / (hi - lo) if hi > lo else np.zeros_like(arr)
    return Image2D(width=arr.shape[1], height=arr.shape[0], pixels=arr)


def diffuse_sample_pgms(ckpt, count: int, seed: int) -> dict[str, bytes]:
    """The files `diffuse-sample` wrote when it ran its own sampling loop: name -> PGM bytes.

    Images stay at the denoiser's size; the RNG is `Rng(seed).derive("sample")`.
    """
    predictor, schedule = unpack_predictor(load_checkpoint(ckpt))
    size = predictor.config.image_size
    images = sample(predictor, schedule, (size, size), Rng(seed).derive("sample"), count=count)
    return {f"sample_{i:04d}.pgm": write_pgm(Image2D(size, size, img)) for i, img in enumerate(images)}


def synthesized_pgms(ckpt, count: int, image_size: int, seed: int, tag: str) -> dict[str, bytes]:
    """The synthetic files `build_dataset` wrote when balancing had its own sampling loop.

    The RNG is `Rng(seed).derive(f"synth:{tag}")`; each image is resized to
    image_size unless the denoiser already samples at that size.
    """
    predictor, schedule = unpack_predictor(load_checkpoint(ckpt))
    size = predictor.config.image_size
    images = sample(predictor, schedule, (size, size), Rng(seed).derive(f"synth:{tag}"), count=count)
    out = {}
    for i, img in enumerate(images):
        pic = Image2D(size, size, img)
        if size != image_size:
            pic = resize_bilinear(pic, image_size, image_size)
        out[f"synthetic_{tag}_{i:04d}.pgm"] = write_pgm(pic)
    return out


def segmentation_loss_per_item(logits: np.ndarray, mask: np.ndarray,
                               smooth: float = 1.0) -> tuple[float, np.ndarray]:
    """BCE + (1 - soft Dice) as `skullnet.segmentation_loss` computed it item by item."""
    z = np.asarray(logits, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    n = z.shape[0]
    npix = z[0].size

    p = 1.0 / (1.0 + np.exp(-np.abs(z)))
    p = np.where(z >= 0, p, 1.0 - p)
    bce = float(np.mean(np.maximum(z, 0.0) - z * m + np.log1p(np.exp(-np.abs(z)))))
    dz_bce = (p - m) / (npix * n)

    loss_dice = 0.0
    dp_dice = np.zeros_like(p)
    for i in range(n):
        a = 2.0 * (p[i] * m[i]).sum() + smooth
        b = p[i].sum() + m[i].sum() + smooth
        loss_dice += 1.0 - a / b
        dp_dice[i] = -(2.0 * m[i] * b - a) / (b * b)
    loss_dice /= n
    dz_dice = dp_dice / n * p * (1.0 - p)

    return bce + loss_dice, (dz_bce + dz_dice).astype(np.float32)
