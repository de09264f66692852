import threading
import tracemalloc

import numpy as np
import pytest

from cqbrain.errors import InvalidArgument
from cqbrain.neuralkernel import ops
from cqbrain.neuralkernel import (
    conv2d,
    conv2d_backward,
    conv_transpose2x2,
    conv_transpose2x2_backward,
    cross_entropy,
    cross_entropy_grad,
    dense,
    dense_backward,
    dropout,
    dropout_backward,
    maxpool2x2,
    maxpool2x2_backward,
    relu,
    relu_backward,
    relu_maxpool2x2_backward,
    sigmoid,
    sigmoid_backward,
)
from cqbrain.rng import Rng

from oracles import (
    col2im_padded,
    col2im_taps,
    conv2d_input_grad,
    conv2d_rows,
    conv2d_same_taps,
    conv2d_same_taps_backward,
    conv_transpose2x2_einsum,
    conv_transpose2x2_einsum_backward,
    finite_difference_grad,
    grads_close,
    kernel_rows,
    maxpool2x2_backward_argmax,
    maxpool2x2_backward_copyto,
    relu_backward_where,
    separated_values,
)

N_GRADCHECK_SEEDS = 20
LAYER_TOL = 1e-3


class TestConv2d:
    def test_all_ones_window_sums(self):
        x = np.ones((1, 3, 3), np.float32)
        w = np.ones((1, 1, 2, 2), np.float32)
        y = conv2d(x, w, np.zeros(1, np.float32))
        assert y.shape == (1, 2, 2)
        assert np.allclose(y, 4.0)

    def test_fig_shape_trace_128(self):
        x = np.zeros((1, 128, 128), np.float32)
        w = np.zeros((2, 1, 5, 5), np.float32)
        assert conv2d(x, w, np.zeros(2, np.float32)).shape == (2, 124, 124)

    def test_zero_weights_give_bias(self):
        x = np.random.default_rng(0).random((3, 6, 6)).astype(np.float32)
        w = np.zeros((2, 3, 3, 3), np.float32)
        b = np.array([1.5, -0.5], np.float32)
        y = conv2d(x, w, b)
        assert np.allclose(y[0], 1.5) and np.allclose(y[1], -0.5)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x1 = rng.standard_normal((2, 7, 7)).astype(np.float32)
        x2 = rng.standard_normal((2, 7, 7)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        b = np.zeros(3, np.float32)
        lhs = conv2d(2.0 * x1 + 3.0 * x2, w, b)
        rhs = 2.0 * conv2d(x1, w, b) + 3.0 * conv2d(x2, w, b)
        assert np.abs(lhs - rhs).max() < 1e-5

    def test_same_padding_preserves_shape(self):
        x = np.random.default_rng(2).random((2, 9, 9)).astype(np.float32)
        w = np.random.default_rng(3).standard_normal((4, 2, 3, 3)).astype(np.float32)
        y = conv2d(x, w, np.zeros(4, np.float32), padding="same")
        assert y.shape == (4, 9, 9)

    def test_stride_two(self):
        x = np.arange(36, dtype=np.float32).reshape(1, 6, 6)
        w = np.ones((1, 1, 2, 2), np.float32)
        y = conv2d(x, w, np.zeros(1, np.float32), stride=2)
        assert y.shape == (1, 3, 3)
        assert y[0, 0, 0] == x[0, 0, 0] + x[0, 0, 1] + x[0, 1, 0] + x[0, 1, 1]

    def test_shape_errors(self):
        with pytest.raises(InvalidArgument):
            conv2d(np.zeros((2, 4, 4), np.float32), np.zeros((1, 3, 3, 3), np.float32), np.zeros(1, np.float32))
        with pytest.raises(InvalidArgument):
            conv2d(np.zeros((1, 4, 4), np.float32), np.zeros((1, 1, 5, 5), np.float32), np.zeros(1, np.float32))
        with pytest.raises(InvalidArgument):
            conv2d(np.zeros((1, 5, 5), np.float32), np.zeros((1, 1, 2, 2), np.float32),
                   np.zeros(1, np.float32), stride=2)

    @pytest.mark.parametrize("seed", range(N_GRADCHECK_SEEDS))
    @pytest.mark.parametrize("stride,padding", [(1, "valid"), (2, "valid"), (1, "same")])
    def test_gradients_match_finite_differences(self, seed, stride, padding):
        rng = np.random.default_rng(seed)
        size = 5 if padding == "same" else (7 if stride == 2 else 5)
        x = rng.standard_normal((2, size, size)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32) * 0.5
        b = rng.standard_normal(3).astype(np.float32) * 0.1
        up = rng.standard_normal(conv2d(x, w, b, stride, padding).shape).astype(np.float32)

        dx, dw, db = conv2d_backward(up, x, w, stride, padding)
        for arr, analytic in ((x, dx), (w, dw), (b, db)):
            num = finite_difference_grad(lambda _: float((conv2d(x, w, b, stride, padding).astype(np.float64) * up).sum()), arr)
            assert grads_close(analytic, num, LAYER_TOL)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_skipping_input_grad_keeps_weight_grads(self, padding, batched, dtype):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(((3,) if batched else ()) + (2, 9, 9)).astype(dtype)
        w = rng.standard_normal((4, 2, 3, 3)).astype(dtype)
        up = rng.standard_normal(conv2d(x, w, np.zeros(4, dtype), 1, padding).shape).astype(dtype)
        dx_full, dw_full, db_full = conv2d_backward(up, x, w, 1, padding)
        dx, dw, db = conv2d_backward(up, x, w, 1, padding, input_grad=False)
        assert dx is None and dx_full.shape == x.shape
        assert dw.dtype == dw_full.dtype == dtype
        assert np.array_equal(dw, dw_full) and np.array_equal(db, db_full)


class TestConvWorkspace:
    """conv kernel rows come from one reused buffer per dtype and thread (ops module docstring)."""

    @staticmethod
    def _first_layer(batch: int = 1):
        rng = np.random.default_rng(3)
        x = rng.random((batch, 1, 128, 128)).astype(np.float32)
        return x, rng.standard_normal((2, 1, 5, 5)).astype(np.float32), np.zeros(2, np.float32)

    def test_warm_call_allocates_no_kernel_rows(self):
        x, w, b = self._first_layer()
        out = conv2d(x, w, b)  # warm-up: grows the workspace to 317,440 B of kernel rows
        tracemalloc.start()
        try:
            out = conv2d(x, w, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 64 * 1024

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_outputs_never_alias_the_workspace(self, padding, channels):
        x, w, b = self._first_layer(batch=2)
        x, w = np.repeat(x, channels, axis=1), np.repeat(w, channels, axis=1)
        y = conv2d(x, w, b, padding=padding)
        grads = conv2d_backward(np.ones_like(y), x, w, padding=padding)
        buffer = ops._workspace.by_dtype[np.dtype(np.float32)]
        for arr in (y, *grads):
            assert not np.shares_memory(arr, buffer)

    def test_float64_calls_keep_float32_rows(self):
        x, _, _ = self._first_layer()
        x64, w64, b64 = x.astype(np.float64), np.ones((3, 1, 5, 5)), np.zeros(3)
        conv2d(x64, w64, b64)  # a buffer shared across dtypes would now be big enough for both
        ex, _ = ops._expand(x, 5, 0, np.dtype(np.float32), (0,))
        want = ex.copy()
        conv2d(x64, w64, b64)
        assert np.array_equal(ex, want)

    def test_each_thread_has_its_own_buffer(self):
        x, w, b = self._first_layer()
        conv2d(x, w, b)
        seen = {}

        def build():
            conv2d(x, w, b)
            seen["buffer"] = ops._workspace.by_dtype[np.dtype(np.float32)]

        worker = threading.Thread(target=build)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert not np.shares_memory(seen["buffer"], ops._workspace.by_dtype[np.dtype(np.float32)])


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal dtype, shape and bytes (so +0.0 and -0.0 differ and NaN equals itself, unlike array_equal)."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes())


def _with_signed_zeros(rng: np.random.Generator, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Normal draws with about a sixth of the entries +0.0 and a sixth -0.0."""
    a = rng.standard_normal(shape).astype(dtype)
    pick = rng.integers(0, 6, shape)
    a[pick == 0] = 0.0
    a[pick == 1] = -0.0
    return a


def _within_rounding(got: np.ndarray, want: np.ndarray, size: np.ndarray, terms: int) -> bool:
    """Equal shapes, and |got - want| <= 2 * terms * eps * size elementwise, eps of got's dtype.

    `want` is a float64 sum of `terms` terms whose absolute values sum to `size`; any
    summation order in got's precision, and the oracle's own, stays within the bound.
    """
    eps = np.finfo(got.dtype).eps
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= 2 * terms * eps * size))


def _abs(*arrays: np.ndarray) -> list[np.ndarray]:
    return [np.abs(np.asarray(a, np.float64)) for a in arrays]


class TestSamePaddingWithoutPad:
    """Same-padded conv2d and its backward are the per-tap sums up to rounding, and allocate only what they return."""

    @staticmethod
    def _operands(seed, k, hw, batched, dtype, c_in=2, c_out=3):
        rng = np.random.default_rng(seed)
        x = _with_signed_zeros(rng, ((4,) if batched else ()) + (c_in, *hw), dtype)
        w = _with_signed_zeros(rng, (c_out, c_in, k, k), dtype)
        b = rng.standard_normal(c_out).astype(dtype)
        dy = _with_signed_zeros(rng, x.shape[:-3] + (c_out, *hw), dtype)
        return x, w, b, dy

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("k, hw", [
        (1, (1, 1)), (1, (4, 7)),
        (3, (1, 1)), (3, (2, 2)), (3, (5, 8)), (3, (9, 4)),
        (5, (1, 1)), (5, (2, 2)), (5, (3, 6)), (5, (11, 7)),
    ])
    def test_forward_and_backward_match_tap_sums(self, k, hw, batched, dtype):
        x, w, b, dy = self._operands(k * 100 + hw[0] * 10 + hw[1], k, hw, batched, dtype)
        y = conv2d(x, w, b, padding="same")
        assert y.dtype == dtype
        assert _within_rounding(y, conv2d_same_taps(x, w, b), conv2d_same_taps(*_abs(x, w, b)), 2 * k * k + 1)
        per_map = (4 if batched else 1) * hw[0] * hw[1]
        want = conv2d_same_taps_backward(dy, x, w)
        size = conv2d_same_taps_backward(*_abs(dy, x, w))
        for input_grad in (True, False):
            got = conv2d_backward(dy, x, w, padding="same", input_grad=input_grad)
            if input_grad:
                assert _within_rounding(got[0], want[0], size[0], 3 * k * k)
            else:
                assert got[0] is None
            assert _within_rounding(got[1], want[1], size[1], per_map)
            assert _within_rounding(got[2], want[2], size[2], per_map)

    @pytest.mark.parametrize("n, c_in, c_out, hw, k, padding", [
        (3, 5, 4, 6, 3, "same"), (3, 5, 4, 6, 5, "same"), (8, 64, 64, 4, 3, "same"), (8, 64, 64, 4, 5, "same"),
        pytest.param(2, 1, 2, 128, 5, "valid", id="classifier-conv1"),
    ])
    def test_batch_items_equal_one_item_results(self, n, c_in, c_out, hw, k, padding):
        # each map gets GEMMs of its own, so a batch's shape cannot change an item's rounding
        rng = np.random.default_rng(n + c_in + k)
        x = rng.standard_normal((n, c_in, hw, hw)).astype(np.float32)
        w = rng.standard_normal((c_out, c_in, k, k)).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        y = conv2d(x, w, b, padding=padding)
        dx, _, _ = conv2d_backward(y, x, w, padding=padding)
        for item, y_item, dx_item in zip(x, y, dx):
            assert _same_bits(y_item, conv2d(item, w, b, padding=padding))
            assert _same_bits(dx_item, conv2d_backward(y_item, item, w, padding=padding)[0])

    @pytest.mark.parametrize("batched", [False, True])
    def test_input_gradient_owns_no_larger_buffer(self, batched):
        x, w, _, dy = self._operands(0, 3, (6, 5), batched, np.float32)
        dx, _, _ = conv2d_backward(dy, x, w, padding="same")
        assert dx.flags.c_contiguous
        assert dx.base is None or dx.base.nbytes == dx.nbytes

    @pytest.mark.parametrize("k, stride, hw, padding", [
        pytest.param(1, 1, (4, 7), "same", id="1-1-hw0"),
        pytest.param(3, 1, (5, 8), "same", id="3-1-hw1"),
        pytest.param(5, 1, (6, 3), "same", id="5-1-hw2"),
        pytest.param(1, 2, (3, 4), "valid", id="1-2-hw3"),
        pytest.param(3, 2, (4, 3), "valid", id="3-2-hw4"),
        pytest.param(5, 2, (2, 5), "valid", id="5-2-hw5"),
        pytest.param(3, 1, (5, 8), "valid", id="valid-3-1-hw6"),
        pytest.param(5, 1, (6, 3), "valid", id="valid-5-1-hw7"),
    ])
    def test_input_gradient_is_the_tap_sum(self, k, stride, hw, padding):
        # the identity itself, apart from the oracle that shares the GEMM: dx equals the
        # per-tap col2im of W^T dy up to rounding, bounded by the same sum of |terms|
        rng = np.random.default_rng(k * 10 + stride)
        pad = (k - 1) // 2 if padding == "same" else 0
        x_shape = (2, 3, (hw[0] - 1) * stride + k - 2 * pad, (hw[1] - 1) * stride + k - 2 * pad)
        x, w = rng.standard_normal(x_shape), rng.standard_normal((4, 3, k, k))
        dy = rng.standard_normal((2, 4, *hw))
        got, _, _ = conv2d_backward(dy, x, w, stride, padding)

        def tap_sum(w, dy):
            dcols = np.matmul(w.reshape(4, -1).T, dy.reshape(2, 4, -1))
            if pad:
                return col2im_padded(dcols, x_shape, k)
            return col2im_taps(dcols, x_shape, k, stride, *hw)

        assert np.all(np.abs(got - tap_sum(w, dy)) <= 1e-12 * tap_sum(np.abs(w), np.abs(dy)))

    @pytest.mark.parametrize("k", [3, 5])
    def test_stale_workspace_is_overwritten(self, k):
        rng = np.random.default_rng(5)
        big = rng.standard_normal((4, 3, 40, 40)).astype(np.float32) + 100.0
        conv2d(big, rng.standard_normal((2, 3, 5, 5)).astype(np.float32), np.zeros(2, np.float32))
        conv2d_backward(np.ones((4, 2, 36, 36), np.float32), big,
                        rng.standard_normal((2, 3, 5, 5)).astype(np.float32))
        # the workspace now holds a larger conv's kernel rows, then NaN everywhere; reused
        # rows must read +0.0 in their border strips, and every GEMM must overwrite its output
        ops._workspace.by_dtype[np.dtype(np.float32)].fill(np.nan)
        x, w, b, dy = self._operands(6, k, (7, 9), True, np.float32)
        want, size = conv2d_same_taps(x, w, b), conv2d_same_taps(*_abs(x, w, b))
        assert _within_rounding(conv2d(x, w, b, padding="same"), want, size, 2 * k * k + 1)
        got = conv2d_backward(dy, x, w, padding="same")
        want, size = conv2d_same_taps_backward(dy, x, w), conv2d_same_taps_backward(*_abs(dy, x, w))
        for got_g, want_g, size_g, terms in zip(got, want, size, (3 * k * k, 4 * 7 * 9, 4 * 7 * 9)):
            assert _within_rounding(got_g, want_g, size_g, terms)

    def test_warm_backward_allocates_only_dx(self):
        # x's and dy's kernel rows, the row sum and the per-map dw products are all
        # carved from the workspace; of the arrays backward returns, only dx is large
        rng = np.random.default_rng(8)
        x = rng.standard_normal((8, 8, 64, 64)).astype(np.float32)
        w = rng.standard_normal((4, 8, 3, 3)).astype(np.float32)
        dy = rng.standard_normal((8, 4, 64, 64)).astype(np.float32)
        conv2d_backward(dy, x, w, padding="same")  # warm-up: grows the workspace
        tracemalloc.start()
        try:
            dx, _, _ = conv2d_backward(dy, x, w, padding="same")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= dx.nbytes + 64 * 1024

    def test_warm_call_allocates_only_its_output(self):
        # the kernel rows (8 x 12 x 66 x 64 float32, 1,622,016 B) and the row-sum
        # accumulator come from the workspace; the first row's GEMM writes the output,
        # the others add into it, and the bias is added in place
        rng = np.random.default_rng(8)
        x = rng.standard_normal((8, 4, 64, 64)).astype(np.float32)
        w = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        b = np.zeros(4, np.float32)
        out = conv2d(x, w, b, padding="same")  # warm-up: grows the workspace
        tracemalloc.start()
        try:
            out = conv2d(x, w, b, padding="same")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 64 * 1024

    def test_even_kernel_rejected(self):
        x = np.zeros((1, 6, 6), np.float32)
        with pytest.raises(InvalidArgument, match="odd kernel"):
            conv2d(x, np.zeros((1, 1, 2, 2), np.float32), np.zeros(1, np.float32), padding="same")
        with pytest.raises(InvalidArgument, match="odd kernel"):
            conv2d_backward(np.zeros((1, 6, 6), np.float32), x, np.zeros((1, 1, 4, 4), np.float32),
                            padding="same")


class TestKernelRows:
    """The expansion equals the per-kj loop over an np.pad copy; a conv's dx equals `conv2d_input_grad`.

    The input gradient's oracle builds dy's kernel rows with the per-kj loop over
    an np.pad copy and runs the same per-row GEMMs in the same order, so the two
    agree byte for byte on -0.0, NaN and infinite terms as well.
    """

    GEOMETRY = [(k, stride, hw) for k in (1, 3, 5) for stride in (1, 2) for hw in ((1, 1), (2, 5), (4, 3))]
    # (k, pad, x's spatial shape): valid, same and a backward's K - 1 padding, wherever a row fits
    ROW_CASES = [pytest.param(k, pad, hw, id=f"{k}-pad{pad}-hw{i}")
                 for k in (1, 3, 5) for pad in sorted({0, (k - 1) // 2, k - 1})
                 for i, hw in enumerate(((1, 1), (2, 5), (4, 3), (7, 6))) if min(hw) + 2 * pad >= k]

    @staticmethod
    def _terms(rng: np.random.Generator, shape: tuple[int, ...], dtype, specials: tuple[float, ...]) -> np.ndarray:
        a = _with_signed_zeros(rng, shape, dtype)
        pick = rng.integers(0, 4 * max(len(specials), 1), shape)
        for i, value in enumerate(specials):
            a[pick == i] = value
        return a

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("k, pad, hw", ROW_CASES)
    def test_expansion_matches_row_loop(self, k, pad, hw, batch, dtype):
        rng = np.random.default_rng(k * 100 + pad * 10 + hw[1])
        x = self._terms(rng, (batch, 3, *hw), dtype, (np.nan, np.inf))
        ops._workspace_arrays(np.dtype(dtype), (4096,))[0].fill(np.nan)  # stale values the border strips must clear
        ex, _ = ops._expand(x, k, pad, np.dtype(dtype), (0,))
        assert _same_bits(ex, kernel_rows(np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))), k))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k, stride, hw, padding", [
        pytest.param(k, stride, hw, padding, id=f"{padding}-{k}-{stride}-hw{i}")
        for i, (k, stride, hw) in enumerate(GEOMETRY) for padding in ("valid", "same")
        if padding == "valid" or stride == 1])
    def test_forward_matches_oracle(self, k, stride, hw, padding, dtype):
        rng = np.random.default_rng(k * 100 + stride * 10 + hw[1])
        pad = (k - 1) // 2 if padding == "same" else 0
        x = self._terms(rng, (2, 3, (hw[0] - 1) * stride + k - 2 * pad, (hw[1] - 1) * stride + k - 2 * pad),
                        dtype, (np.nan, np.inf))
        w, b = _with_signed_zeros(rng, (2, 3, k, k), dtype), _with_signed_zeros(rng, (2,), dtype)
        with np.errstate(invalid="ignore"):  # inf - inf
            got = conv2d(x, w, b, stride, padding)
            want = conv2d_rows(np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))), w, b)[:, :, ::stride, ::stride]
        assert _same_bits(got, np.ascontiguousarray(want))

    @pytest.mark.parametrize("specials", [(), (np.nan, np.inf), (np.inf, -np.inf)], ids=["finite", "nan", "infs"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("k, stride, hw", GEOMETRY)
    def test_input_gradient_matches_oracle(self, k, stride, hw, batch, dtype, specials):
        rng = np.random.default_rng(k * 100 + stride * 10 + hw[1] + len(specials))
        x_shape = (batch, 3, (hw[0] - 1) * stride + k, (hw[1] - 1) * stride + k)
        dy = self._terms(rng, (batch, 2, *hw), dtype, specials)
        w = _with_signed_zeros(rng, (2, 3, k, k), dtype)
        with np.errstate(invalid="ignore"):  # inf - inf
            got, _, _ = conv2d_backward(dy, np.zeros(x_shape, dtype), w, stride)
            want = conv2d_input_grad(dy, w, stride, 0)
        assert _same_bits(got, want)
        assert got.flags.c_contiguous

    def test_one_tap_input_gradient_allocates_only_its_output(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 4, 64, 64)).astype(np.float32)
        w = rng.standard_normal((4, 4, 1, 1)).astype(np.float32)
        dy = rng.standard_normal((8, 4, 64, 64)).astype(np.float32)
        conv2d_backward(dy, x, w)  # warm-up: grows the workspace
        tracemalloc.start()
        try:
            dx, _, _ = conv2d_backward(dy, x, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= dx.nbytes + 64 * 1024


class TestOneByOneConv:
    """A 1x1 conv without padding reads x's own maps as its kernel row and copies nothing."""

    # the U-Net head's (C_in = widths[0], C_out = 1) at the segment and synthesize workloads' shapes
    SHAPES = [(8, 4, 64, 64), (12, 8, 32, 32), (6, 8, 32, 32), (1, 4, 64, 64)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kernel_row_is_x_itself(self, dtype):
        x = np.random.default_rng(0).standard_normal((2, 3, 5, 7)).astype(dtype)
        ex, _ = ops._expand(x, 1, 0, np.dtype(dtype), (0,))
        assert ex.shape == (2, 3, 35) and np.shares_memory(ex, x)

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_matches_the_row_oracles(self, shape):
        rng = np.random.default_rng(shape[0])
        x = rng.standard_normal(shape).astype(np.float32)
        w = rng.standard_normal((1, shape[1], 1, 1)).astype(np.float32)
        b = rng.standard_normal(1).astype(np.float32)
        y = conv2d(x, w, b)
        assert _same_bits(y, conv2d_rows(x, w, b))
        dx, dw, _ = conv2d_backward(y, x, w)
        assert _same_bits(dx, conv2d_input_grad(y, w, 1, 0))
        want_dw = sum(y[n].reshape(1, -1) @ x[n].reshape(shape[1], -1).T for n in range(shape[0]))
        assert np.allclose(dw.reshape(1, -1), want_dw, rtol=1e-5, atol=1e-4)


class TestConvTranspose:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 4, 5), (1, 1, 1), (2, 3, 1, 1), (4, 5, 3, 6), (8, 16, 4, 4)])
    def test_gemm_matches_einsum_oracle(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        c_in, c_out = shape[-3], 3
        x = _with_signed_zeros(rng, shape, dtype)
        w = _with_signed_zeros(rng, (c_in, c_out, 2, 2), dtype)
        b = rng.standard_normal(c_out).astype(dtype)
        dy = _with_signed_zeros(rng, shape[:-3] + (c_out, 2 * shape[-2], 2 * shape[-1]), dtype)
        f64 = [np.asarray(a, np.float64) for a in (x, w, b, dy)]
        y = conv_transpose2x2(x, w, b)
        assert y.dtype == dtype
        assert _within_rounding(y, conv_transpose2x2_einsum(*f64[:3]), conv_transpose2x2_einsum(*_abs(x, w, b)), c_in + 1)
        got = conv_transpose2x2_backward(dy, x, w)
        want = conv_transpose2x2_einsum_backward(f64[3], *f64[:2])
        size = conv_transpose2x2_einsum_backward(*_abs(dy, x, w))
        per_map = x.size // c_in  # N * H * W inputs, each one term of dw
        for got_g, want_g, size_g, terms in zip(got, want, size, (c_out * 4, per_map, 4 * per_map)):
            assert got_g.dtype == dtype
            assert _within_rounding(got_g, want_g, size_g, terms)

    def test_batch_items_equal_one_item_results(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 6, 4, 3)).astype(np.float32)
        w = rng.standard_normal((6, 4, 2, 2)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        y = conv_transpose2x2(x, w, b)
        for item, y_item in zip(x, y):
            assert _same_bits(y_item, conv_transpose2x2(item, w, b))

    def test_outputs_never_alias_the_workspace(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        w = rng.standard_normal((3, 2, 2, 2)).astype(np.float32)
        y = conv_transpose2x2(x, w, np.zeros(2, np.float32))
        grads = conv_transpose2x2_backward(np.ones_like(y), x, w)
        buffer = ops._workspace.by_dtype[np.dtype(np.float32)]
        for arr in (y, *grads):
            assert not np.shares_memory(arr, buffer)

    def test_doubles_spatial_size(self):
        x = np.random.default_rng(0).random((3, 4, 5)).astype(np.float32)
        w = np.random.default_rng(1).standard_normal((3, 2, 2, 2)).astype(np.float32)
        y = conv_transpose2x2(x, w, np.zeros(2, np.float32))
        assert y.shape == (2, 8, 10)

    def test_single_pixel_expansion(self):
        x = np.array([[[2.0]]], np.float32)
        w = np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2)
        y = conv_transpose2x2(x, w, np.zeros(1, np.float32))
        assert np.allclose(y[0], 2.0 * w[0, 0])

    @pytest.mark.parametrize("seed", range(N_GRADCHECK_SEEDS))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed + 100)
        x = rng.standard_normal((2, 3, 3)).astype(np.float32)
        w = rng.standard_normal((2, 3, 2, 2)).astype(np.float32) * 0.5
        b = rng.standard_normal(3).astype(np.float32) * 0.1
        up = rng.standard_normal((3, 6, 6)).astype(np.float32)
        dx, dw, db = conv_transpose2x2_backward(up, x, w)
        for arr, analytic in ((x, dx), (w, dw), (b, db)):
            num = finite_difference_grad(lambda _: float((conv_transpose2x2(x, w, b).astype(np.float64) * up).sum()), arr)
            assert grads_close(analytic, num, LAYER_TOL)


class TestMaxPool:
    def test_simple_window(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]], np.float32)
        assert maxpool2x2(x)[0, 0, 0] == 4.0

    def test_fig_shape_trace(self):
        assert maxpool2x2(np.zeros((2, 124, 124), np.float32)).shape == (2, 62, 62)

    def test_odd_trailing_dropped(self):
        x = np.random.default_rng(0).random((1, 5, 7)).astype(np.float32)
        assert maxpool2x2(x).shape == (1, 2, 3)

    def test_tie_routes_gradient_to_first_row_major(self):
        x = np.full((1, 2, 2), 3.0, np.float32)
        dy = np.array([[[5.0]]], np.float32)
        dx = maxpool2x2_backward(dy, x)
        assert dx[0, 0, 0] == 5.0
        assert dx.sum() == 5.0

    @pytest.mark.parametrize("seed", range(N_GRADCHECK_SEEDS))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed + 200)
        x = separated_values(rng, (2, 6, 6))
        up = rng.standard_normal((2, 3, 3)).astype(np.float32)
        dx = maxpool2x2_backward(up, x)
        num = finite_difference_grad(lambda _: float((maxpool2x2(x).astype(np.float64) * up).sum()), x)
        assert grads_close(dx, num, LAYER_TOL)

    @staticmethod
    def _assert_matches_argmax_oracle(x, dy):
        dx = maxpool2x2_backward(dy, x)
        expected = maxpool2x2_backward_argmax(dy, x)
        assert dx.shape == expected.shape
        assert dx.tobytes() == expected.tobytes()  # also compares the sign of zeros
        windows = [x[..., di : x.shape[-2] // 2 * 2 : 2, dj : x.shape[-1] // 2 * 2 : 2]
                   for di in (0, 1) for dj in (0, 1)]
        assert maxpool2x2(x).tobytes() == np.stack(windows).max(axis=0).tobytes()

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("shape", [(3, 6, 8), (2, 7, 9), (2, 3, 5, 5), (4, 2, 8, 6)])
    def test_three_level_ties_match_argmax_oracle(self, seed, shape):
        rng = np.random.default_rng(seed + 300)
        x = rng.integers(0, 3, size=shape).astype(np.float32)  # 2-, 3- and 4-way ties are common
        dy = rng.standard_normal(shape[:-2] + (shape[-2] // 2, shape[-1] // 2)).astype(np.float32)
        self._assert_matches_argmax_oracle(x, dy)

    @pytest.mark.parametrize("seed", range(5))
    def test_relu_signed_zeros_match_argmax_oracle(self, seed):
        rng = np.random.default_rng(seed + 400)
        x = relu(rng.integers(-1, 2, size=(2, 2, 9, 11)).astype(np.float32))
        x[(x == 0) & (rng.random(x.shape) < 0.5)] = -0.0  # non-negative, with both zero signs
        assert np.signbit(x[x == 0]).any() and not np.signbit(x[x == 0]).all()
        dy = rng.standard_normal((2, 2, 4, 5)).astype(np.float32)
        self._assert_matches_argmax_oracle(x, dy)


SPECIALS = (np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0)
POOL_SHAPES = [(2, 6, 8), (3, 7, 9), (2, 2, 5, 6), (3, 4, 9, 7), (1, 2, 124, 124)]


def _with_specials(rng: np.random.Generator, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Integers in [-2, 2] (ties, zeros, both signs) with NaN, ±inf and ±0.0 at a fifth of the places."""
    x = rng.integers(-2, 3, size=shape).astype(dtype)
    special = rng.random(shape) < 0.2
    x[special] = rng.choice(np.array(SPECIALS, dtype), special.sum())
    return x


def _pooled(shape: tuple[int, ...]) -> tuple[int, ...]:
    return shape[:-2] + (shape[-2] // 2, shape[-1] // 2)


def _same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: the sign of zeros and NaN payloads count."""
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSelectFreeBackward:
    """The bit-mask pool and ReLU backward kernels equal their select forms and compositions byte for byte."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_fused_equals_the_composition(self, shape, dtype, seed):
        rng = np.random.default_rng(seed + 500)
        z, dy = _with_specials(rng, shape, dtype), _with_specials(rng, _pooled(shape), dtype)
        got = relu_maxpool2x2_backward(dy, z, maxpool2x2(z))
        assert _same_bytes(got, relu_maxpool2x2_backward(dy, z, relu(maxpool2x2(z))))  # the classifier's kept form
        assert _same_bytes(got, relu_backward(maxpool2x2_backward(dy, relu(z)), z))
        assert _same_bytes(got, relu_backward_where(maxpool2x2_backward_copyto(dy, relu(z)), z))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_pool_then_relu_equals_relu_then_pool(self, shape, dtype, seed):
        z = _with_specials(np.random.default_rng(seed + 600), shape, dtype)
        assert _same_bytes(relu(maxpool2x2(z)), maxpool2x2(relu(z)))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_relu_backward_equals_the_select_form(self, shape, dtype, seed):
        rng = np.random.default_rng(seed + 700)
        x, dy = _with_specials(rng, shape, dtype), _with_specials(rng, shape, dtype)
        assert _same_bytes(relu_backward(dy, x), relu_backward_where(dy, x))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_maxpool_backward_equals_the_copyto_form(self, shape, dtype, seed):
        rng = np.random.default_rng(seed + 800)
        x, dy = _with_specials(rng, shape, dtype), _with_specials(rng, _pooled(shape), dtype)
        for pooled_input in (x, relu(x)):
            assert _same_bytes(maxpool2x2_backward(dy, pooled_input), maxpool2x2_backward_copyto(dy, pooled_input))

    def test_fused_windows(self):
        # windows left to right: a positive max tied twice, a max of 0 held by +0.0 and -0.0,
        # a NaN beside a positive value, all negative, and a positive max whose dy is -0.0
        z = np.array([[[1.0, 3.0, 0.0, -1.0, 5.0, np.nan, -1.0, -2.0, 2.0, 1.0],
                       [3.0, -1.0, -0.0, -2.0, 1.0, 2.0, -3.0, -4.0, 0.5, 0.0]]], np.float32)
        dy = np.array([[[7.0, 7.0, 7.0, 7.0, -0.0]]], np.float32)
        want = np.zeros_like(z)
        want[0, 0, 1] = 7.0  # the first 3.0 in row-major order
        want[0, 0, 8] = -0.0
        assert _same_bytes(relu_maxpool2x2_backward(dy, z, maxpool2x2(z)), want)  # bytes: -0.0 at [0, 0, 8] only

    def test_fused_rejects_a_mismatched_upstream(self):
        z = np.zeros((2, 7, 8), np.float32)
        with pytest.raises(InvalidArgument, match="upstream shape"):
            relu_maxpool2x2_backward(np.zeros((2, 3, 3), np.float32), z, maxpool2x2(z))

    def test_fused_rejects_a_mismatched_window_max(self):
        z = np.zeros((2, 7, 8), np.float32)
        with pytest.raises(InvalidArgument, match="window max shape"):
            relu_maxpool2x2_backward(np.zeros((2, 3, 4), np.float32), z, np.zeros((2, 3, 3), np.float32))

    @pytest.mark.parametrize("seed", range(N_GRADCHECK_SEEDS))
    @pytest.mark.parametrize("shape", [(2, 6, 6), (2, 2, 5, 7)])
    def test_fused_gradient_matches_finite_differences(self, shape, seed):
        rng = np.random.default_rng(seed + 900)
        z = separated_values(rng, shape)  # no ties, no kink at 0
        up = rng.standard_normal(_pooled(shape)).astype(np.float32)
        dz = relu_maxpool2x2_backward(up, z, maxpool2x2(z))
        num = finite_difference_grad(lambda _: float((maxpool2x2(relu(z)).astype(np.float64) * up).sum()), z)
        assert grads_close(dz, num, LAYER_TOL)


class TestReluDenseDropout:
    def test_relu_values(self):
        assert relu(np.array([-1.0], np.float32))[0] == 0.0
        assert relu(np.array([2.0], np.float32))[0] == 2.0

    def test_dense_identity(self):
        x = np.array([1.0, -2.0, 3.0], np.float32)
        y = dense(x, np.eye(3, dtype=np.float32), np.zeros(3, np.float32))
        assert np.allclose(y, x)

    def test_dense_shape_error(self):
        with pytest.raises(InvalidArgument):
            dense(np.zeros(3, np.float32), np.zeros((2, 4), np.float32), np.zeros(2, np.float32))

    def test_dropout_rate_zero_is_identity(self):
        x = np.random.default_rng(0).random(20).astype(np.float32)
        for mode in ("train", "eval"):
            y, _ = dropout(x, 0.0, mode, Rng(1))
            assert np.array_equal(y, x)

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_dropout_rejects_unknown_mode(self, rate):
        with pytest.raises(InvalidArgument, match="mode"):
            dropout(np.ones(4, np.float32), rate, "trian", Rng(1))

    def test_dropout_eval_identity(self):
        x = np.random.default_rng(1).random(16).astype(np.float32)
        y, mask = dropout(x, 0.5, "eval")
        assert np.array_equal(y, x) and mask.all()

    def test_dropout_train_scales_survivors(self):
        x = np.ones(1000, np.float32)
        y, mask = dropout(x, 0.25, "train", Rng(7))
        kept = y[mask == 1.0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert (y[mask == 0.0] == 0.0).all()

    def test_dropout_expectation_matches_input(self):
        # mean over many stochastic applications of a constant input
        x = np.full(64, 2.0, np.float32)
        rate = 0.5
        rng = Rng(3).derive("dropout-expectation")
        trials = 10_000
        acc = np.zeros(64, np.float64)
        for _ in range(trials):
            y, _ = dropout(x, rate, "train", rng)
            acc += y
        mean = acc / trials
        # per-unit variance of one draw: x^2 * rate/(1-rate); SE over trials
        se = float(np.sqrt(4.0 * rate / (1.0 - rate) / trials))
        assert np.abs(mean - 2.0).max() <= 3.0 * se * np.sqrt(64)  # union-ish slack over units

    @pytest.mark.parametrize("seed", range(N_GRADCHECK_SEEDS))
    def test_relu_gradient(self, seed):
        rng = np.random.default_rng(seed + 300)
        x = separated_values(rng, (30,))
        up = rng.standard_normal(30).astype(np.float32)
        dx = relu_backward(up, x)
        num = finite_difference_grad(lambda _: float((relu(x).astype(np.float64) * up).sum()), x)
        assert grads_close(dx, num, LAYER_TOL)

    @pytest.mark.parametrize("seed", range(N_GRADCHECK_SEEDS))
    def test_dense_gradients(self, seed):
        rng = np.random.default_rng(seed + 400)
        x = rng.standard_normal(6).astype(np.float32)
        w = rng.standard_normal((4, 6)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        up = rng.standard_normal(4).astype(np.float32)
        dx, dw, db = dense_backward(up, x, w)
        for arr, analytic in ((x, dx), (w, dw), (b, db)):
            num = finite_difference_grad(lambda _: float((dense(x, w, b).astype(np.float64) * up).sum()), arr)
            assert grads_close(analytic, num, LAYER_TOL)

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_takes_one_row_and_rejects_a_batch(self, seed):
        rng = np.random.default_rng(seed + 450)
        k, m = rng.integers(1, 9), rng.integers(1, 300)
        x = rng.standard_normal(m).astype(np.float32)
        w = rng.standard_normal((k, m)).astype(np.float32)
        up = rng.standard_normal(k).astype(np.float32)
        dx, dw, db = dense_backward(up, x, w)
        assert dx.shape == (m,) and dw.shape == (k, m) and db.shape == (k,)
        assert np.array_equal(dw, np.outer(up, x)) and np.array_equal(db, up)
        with pytest.raises(InvalidArgument):
            dense(x[None], w, np.zeros(k, np.float32))
        for dy_rows, x_rows in ((up[None], x[None]), (up[None], x), (up, x[None])):
            with pytest.raises(InvalidArgument):
                dense_backward(dy_rows, x_rows, w)

    @pytest.mark.parametrize("seed", range(N_GRADCHECK_SEEDS))
    def test_dropout_gradient_with_frozen_mask(self, seed):
        rng = np.random.default_rng(seed + 500)
        x = rng.standard_normal(40).astype(np.float32)
        up = rng.standard_normal(40).astype(np.float32)
        rate = 0.3
        _, mask = dropout(x, rate, "train", Rng(seed))
        dx = dropout_backward(up, mask, rate)
        num = finite_difference_grad(
            lambda _: float(((x * mask / (1.0 - rate)).astype(np.float64) * up).sum()), x
        )
        assert grads_close(dx, num, LAYER_TOL)

    @pytest.mark.parametrize("seed", range(N_GRADCHECK_SEEDS))
    def test_sigmoid_gradient(self, seed):
        rng = np.random.default_rng(seed + 600)
        x = rng.standard_normal(25).astype(np.float32) * 2.0
        up = rng.standard_normal(25).astype(np.float32)
        dx = sigmoid_backward(up, sigmoid(x))
        num = finite_difference_grad(lambda _: float((np.asarray(sigmoid(x), np.float64) * up).sum()), x)
        assert grads_close(dx, num, LAYER_TOL)


class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        assert cross_entropy(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-6)

    def test_uniform_prediction_is_ln2(self):
        loss = cross_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(np.log(2.0), rel=1e-5)

    def test_clamp_keeps_loss_finite(self):
        loss = cross_entropy(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss)
        assert loss == pytest.approx(-np.log(1e-7), rel=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgument):
            cross_entropy(np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("loss", [cross_entropy, cross_entropy_grad])
    def test_one_row_only(self, loss):
        g = np.full((2, 2), 0.5, np.float32)
        with pytest.raises(InvalidArgument, match="expected one row each"):
            loss(g, g)

    @pytest.mark.parametrize("seed", range(N_GRADCHECK_SEEDS))
    def test_gradient(self, seed):
        rng = np.random.default_rng(seed + 700)
        g = rng.uniform(0.05, 0.95, 4).astype(np.float32)
        y = np.zeros(4, np.float32)
        y[rng.integers(0, 4)] = 1.0
        analytic = cross_entropy_grad(g, y)
        num = finite_difference_grad(lambda _: cross_entropy(g, y), g, h_scale=1e-4)
        assert grads_close(analytic, num, LAYER_TOL)
