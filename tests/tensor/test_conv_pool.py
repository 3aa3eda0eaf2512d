"""Convolution and pooling: reference values, shapes, gradients."""

import itertools

import numpy as np
import pytest
from scipy import signal

from repro.tensor import Tensor, functional as F, gradcheck, use_array_backend
from repro.tensor.backend import InstrumentedBackend


def reference_conv2d(x, w, b=None, stride=1, padding=0):
    """Direct cross-correlation reference using scipy.signal."""
    n, c_in, h, wd = x.shape
    c_out = w.shape[0]
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - w.shape[2]) // stride + 1
    out_w = (x.shape[3] - w.shape[3]) // stride + 1
    out = np.zeros((n, c_out, out_h, out_w))
    for i in range(n):
        for o in range(c_out):
            acc = np.zeros((x.shape[2] - w.shape[2] + 1, x.shape[3] - w.shape[3] + 1))
            for ci in range(c_in):
                acc += signal.correlate2d(x[i, ci], w[o, ci], mode="valid")
            out[i, o] = acc[::stride, ::stride]
            if b is not None:
                out[i, o] += b[o]
    return out


class TestConv2dValues:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_scipy_reference(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        ref = reference_conv2d(x, w, b, stride=stride, padding=padding)
        np.testing.assert_allclose(out.numpy(), ref, rtol=1e-5, atol=1e-8)

    def test_identity_kernel(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        w = np.zeros((1, 1, 1, 1))
        w[0, 0, 0, 0] = 1.0
        out = F.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.numpy(), x)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv2d(x, w)

    def test_output_shape_formula(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 9, 9)))
        w = Tensor(rng.standard_normal((5, 2, 3, 3)))
        out = F.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 5, 5, 5)


class TestConv2dGradients:
    def test_gradcheck_no_bias(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 5, 5)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5)
        gradcheck(lambda a, b: F.conv2d(a, b, stride=1, padding=1), [x, w])

    def test_gradcheck_strided_with_bias(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 6, 6)))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)) * 0.5)
        b = Tensor(rng.standard_normal(2) * 0.5)
        gradcheck(lambda a, c, d: F.conv2d(a, c, d, stride=2), [x, w, b])

    def test_input_grad_only(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)), requires_grad=True)
        w = Tensor(np.ones((1, 1, 2, 2)))  # constant weights
        out = F.conv2d(x, w)
        out.sum().backward()
        # each interior input pixel participates in several windows
        assert x.grad is not None
        assert x.grad[0, 0, 1, 1] == pytest.approx(4.0)
        assert x.grad[0, 0, 0, 0] == pytest.approx(1.0)


class TestMaxPool:
    def test_exact_tiling_values(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = F.max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.numpy(), [[[[4.0]]]])

    def test_exact_tiling_grad_routes_to_max(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, [[[[0.0, 0.0], [0.0, 1.0]]]])

    def test_tie_gradient_split(self):
        x = Tensor(np.full((1, 1, 2, 2), 5.0), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 2, 2), 0.25))

    def test_strided_path_matches_reference(self, rng):
        x = rng.standard_normal((2, 3, 7, 7))
        out = F.max_pool2d(Tensor(x), 3, stride=2).numpy()
        # naive reference
        ref = np.zeros((2, 3, 3, 3))
        for i in range(3):
            for j in range(3):
                ref[:, :, i, j] = x[:, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3].max(axis=(2, 3))
        np.testing.assert_allclose(out, ref, rtol=1e-6)

    def test_strided_gradcheck(self, rng):
        # Use well-separated values so the argmax is stable under eps.
        x = Tensor(rng.permutation(np.arange(98.0)).reshape(2, 1, 7, 7))
        gradcheck(lambda a: F.max_pool2d(a, 3, stride=2), [x])


class TestAvgPool:
    def test_values(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = F.avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.numpy(), [[[[2.5]]]])

    def test_gradcheck(self, rng):
        gradcheck(lambda a: F.avg_pool2d(a, 2), [Tensor(rng.standard_normal((2, 2, 4, 4)))])

    def test_non_tiling_raises(self, rng):
        with pytest.raises(NotImplementedError):
            F.avg_pool2d(Tensor(rng.standard_normal((1, 1, 5, 5))), 2)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.numpy(), x.mean(axis=(2, 3)), rtol=1e-6)


# ----------------------------------------------------------------------
# Bitwise kernel gate: the slice-add col2im against the add.at scatter
# ----------------------------------------------------------------------
def _window_indices(c, kh, kw, out_h, out_w, stride):
    """Fancy (k, i, j) indices of every window, rows ordered (c, a, b)
    and columns (p, q) — the im2col column layout."""
    ch, a, b = (m.reshape(-1, 1) for m in np.meshgrid(
        np.arange(c), np.arange(kh), np.arange(kw), indexing="ij"))
    p, q = (m.reshape(1, -1) for m in np.meshgrid(
        np.arange(out_h), np.arange(out_w), indexing="ij"))
    return ch, a + stride * p, b + stride * q


def _reference_conv2d(x, w, bias, g, stride, padding):
    """The fancy-index im2col / einsum / ``np.add.at`` conv kernel:
    returns ``(out, grad_x, grad_w, grad_b)``."""
    n, c_in = x.shape[:2]
    c_out, _, kh, kw = w.shape
    pads = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    x_pad = np.pad(x, pads)
    hp, wp = x_pad.shape[2:]
    out_h, out_w = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    idx = (slice(None),) + _window_indices(c_in, kh, kw, out_h, out_w, stride)
    cols = x_pad[idx]
    w_mat = w.reshape(c_out, -1)
    out = np.einsum("ok,nkp->nop", w_mat, cols, optimize=True)
    out = out.reshape(n, c_out, out_h, out_w) + bias.reshape(1, c_out, 1, 1)
    g_mat = g.reshape(n, c_out, -1)
    grad_w = np.einsum("nop,nkp->ok", g_mat, cols, optimize=True).reshape(w.shape)
    grad_b = g.sum(axis=(0, 2, 3))
    grad_cols = np.einsum("ok,nop->nkp", w_mat, g_mat, optimize=True)
    grad_pad = np.zeros(x_pad.shape, dtype=x.dtype)
    np.add.at(grad_pad, idx, grad_cols)
    grad_x = grad_pad[:, :, padding : hp - padding, padding : wp - padding]
    return out, grad_x, grad_w, grad_b


def _reference_max_pool2d(x, g, k, stride):
    """The im2col / argmax / ``np.add.at`` strided max-pool kernel:
    returns ``(out, grad_x)``; ties route to the first window element."""
    n, c, h, w = x.shape
    out_h, out_w = (h - k) // stride + 1, (w - k) // stride + 1
    idx = (slice(None),) + _window_indices(c, k, k, out_h, out_w, stride)
    cols = x[idx].reshape(n, c, k * k, -1)
    arg = cols.argmax(axis=2)[:, :, None, :]
    out = np.take_along_axis(cols, arg, axis=2).reshape(n, c, out_h, out_w)
    grad_cols = np.zeros(cols.shape, dtype=x.dtype)
    np.put_along_axis(grad_cols, arg, g.reshape(n, c, 1, -1), axis=2)
    grad_x = np.zeros_like(x)
    np.add.at(grad_x, idx, grad_cols.reshape(n, c * k * k, -1))
    return out, grad_x


def _assert_bitwise(got, want):
    got = np.asarray(got)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# The seed CNN's two conv inputs at its training batch: conv1 on 8x8
# images and conv2 on the pooled 4x4 map.
_HOT_INPUTS = [((20, 3, 8, 8), 32), ((20, 32, 4, 4), 64)]
_CONV_CASES = [
    (shape, c_out, k, stride, padding)
    for (shape, c_out), k, stride, padding in itertools.product(
        _HOT_INPUTS, (1, 2, 3, 5), (1, 2, 3), (0, 1, 2)
    )
    if shape[2] + 2 * padding >= k
]


class TestKernelsBitwise:
    def _conv(self, shape, c_out, k, stride, padding, dtype, grad_x=True, grad_w=True):
        rng = np.random.default_rng([*shape, k, stride, padding])
        x = rng.standard_normal(shape).astype(dtype)
        w = (rng.standard_normal((c_out, shape[1], k, k)) * 0.2).astype(dtype)
        b = rng.standard_normal(c_out).astype(dtype)
        tx = Tensor(x, requires_grad=grad_x)
        tw = Tensor(w, requires_grad=grad_w)
        tb = Tensor(b, requires_grad=True)
        out = F.conv2d(tx, tw, tb, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape).astype(dtype)
        out.backward(g)
        ref = _reference_conv2d(x, w, b, g, stride, padding)
        _assert_bitwise(out.numpy(), ref[0])
        _assert_bitwise(tb.grad, ref[3])
        return tx, tw, ref

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,c_out,k,stride,padding", _CONV_CASES)
    def test_conv2d_matches_add_at_kernel(self, shape, c_out, k, stride, padding, dtype):
        tx, tw, ref = self._conv(shape, c_out, k, stride, padding, dtype)
        _assert_bitwise(tx.grad, ref[1])
        _assert_bitwise(tw.grad, ref[2])

    @pytest.mark.parametrize("shape,c_out", _HOT_INPUTS)
    def test_conv2d_input_grad_only(self, shape, c_out):
        tx, tw, ref = self._conv(shape, c_out, 5, 1, 2, np.float32, grad_w=False)
        _assert_bitwise(tx.grad, ref[1])
        assert tw.grad is None

    @pytest.mark.parametrize("shape,c_out", _HOT_INPUTS)
    def test_conv2d_weight_grad_only(self, shape, c_out):
        tx, tw, ref = self._conv(shape, c_out, 3, 2, 1, np.float32, grad_x=False)
        _assert_bitwise(tw.grad, ref[2])
        assert tx.grad is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape,k,stride",
        [
            ((2, 3, 7, 7), 3, 2),  # overlapping windows
            ((2, 3, 6, 6), 3, 1),  # every interior element in 9 windows
            ((3, 4, 8, 8), 2, 1),
            ((2, 2, 7, 7), 2, 2),  # non-tiling: general path
            ((2, 2, 10, 10), 2, 3),  # gaps between windows
            ((20, 32, 8, 8), 3, 2),
        ],
    )
    def test_strided_max_pool_matches_add_at_kernel(self, shape, k, stride, dtype):
        rng = np.random.default_rng([*shape, k, stride])
        # Few distinct values: windows hold ties and overlapping windows
        # share their maxima.
        x = rng.integers(0, 3, size=shape).astype(dtype)
        tx = Tensor(x, requires_grad=True)
        out = F.max_pool2d(tx, k, stride=stride)
        g = rng.standard_normal(out.shape).astype(dtype)
        out.backward(g)
        ref_out, ref_grad = _reference_max_pool2d(x, g, k, stride)
        _assert_bitwise(out.numpy(), ref_out)
        _assert_bitwise(tx.grad, ref_grad)

    def test_conv_and_strided_pool_need_no_add_at(self):
        rng = np.random.default_rng(0)
        backend = InstrumentedBackend()
        with use_array_backend(backend):
            x = Tensor(rng.standard_normal((4, 3, 9, 9)), requires_grad=True)
            w = Tensor(rng.standard_normal((5, 3, 3, 3)), requires_grad=True)
            h = F.conv2d(x, w, stride=1, padding=1)
            F.max_pool2d(h, 3, stride=2).sum().backward()
        assert x.grad is not None and w.grad is not None
        assert backend.counts["einsum"] > 0
        assert backend.counts["add_at"] == 0
