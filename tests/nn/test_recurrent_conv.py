"""Tests for recurrent cells and temporal convolutions."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients, set_default_dtype
from repro.nn import (LSTM, DilatedInception, GRUCell, LSTMCell,
                      TemporalConv2d)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestGRUCell:
    def test_shapes_with_extra_batch_axes(self):
        cell = GRUCell(3, 8, rng=rng())
        x = Tensor(rng(1).standard_normal((5, 26, 3)))  # (samples, nodes, feat)
        h = cell.initial_state((5, 26))
        out = cell(x, h)
        assert out.shape == (5, 26, 8)

    def test_state_bounded_by_tanh(self):
        cell = GRUCell(2, 4, rng=rng(2))
        h = cell.initial_state((3,))
        for t in range(50):
            h = cell(Tensor(rng(t).standard_normal((3, 2)) * 10), h)
        assert np.abs(h.data).max() <= 1.0 + 1e-9

    def test_zero_update_gate_keeps_candidate(self):
        cell = GRUCell(2, 3, rng=rng(3))
        # Force update gate to ~0 => h_new ~ candidate (bounded by tanh)
        cell.gates.bias.data[:3] = -50.0
        h = Tensor(np.ones((1, 3)) * 0.9)
        out = cell(Tensor(np.zeros((1, 2))), h)
        assert not np.allclose(out.data, h.data)

    def test_input_size_validation(self):
        cell = GRUCell(3, 4, rng=rng())
        with pytest.raises(ValueError):
            cell(Tensor(np.zeros((2, 5))), cell.initial_state((2,)))

    def test_gradients_flow_through_time(self):
        cell = GRUCell(2, 3, rng=rng(4))
        x1 = Tensor(rng(5).standard_normal((2, 2)), requires_grad=True)
        x2 = Tensor(rng(6).standard_normal((2, 2)), requires_grad=True)

        def run(x1, x2):
            h = cell.initial_state((2,))
            h = cell(x1, h)
            h = cell(x2, h)
            return (h * h).sum()

        check_gradients(run, [x1, x2], atol=1e-4)


class TestLSTMCell:
    def test_forget_bias_initialized_to_one(self):
        cell = LSTMCell(2, 4, rng=rng())
        np.testing.assert_array_equal(cell.gates.bias.data[4:8], np.ones(4))

    def test_step_shapes(self):
        cell = LSTMCell(3, 5, rng=rng(7))
        h, c = cell.initial_state((4,))
        h2, c2 = cell(Tensor(np.zeros((4, 3))), (h, c))
        assert h2.shape == (4, 5)
        assert c2.shape == (4, 5)

    def test_gradient(self):
        cell = LSTMCell(2, 3, rng=rng(8))
        x = Tensor(rng(9).standard_normal((2, 2)), requires_grad=True)

        def run(x):
            h, c = cell.initial_state((2,))
            h, c = cell(x, (h, c))
            return (h * h).sum()

        check_gradients(run, [x], atol=1e-4)


class TestLSTM:
    def test_output_shapes(self):
        lstm = LSTM(4, 8, rng=rng(10))
        outputs, (h, c) = lstm(Tensor(rng(11).standard_normal((5, 7, 4))))
        assert outputs.shape == (5, 7, 8)
        assert h.shape == (5, 8)
        assert c.shape == (5, 8)

    def test_stacked_layers(self):
        lstm = LSTM(4, 8, num_layers=2, rng=rng(12))
        outputs, _ = lstm(Tensor(np.zeros((2, 3, 4))))
        assert outputs.shape == (2, 3, 8)
        assert len(list(lstm.parameters())) == 4  # 2 layers x (weight, bias)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            LSTM(4, 8, rng=rng())(Tensor(np.zeros((5, 4))))

    def test_final_state_is_last_output(self):
        lstm = LSTM(2, 3, rng=rng(13))
        outputs, (h, _) = lstm(Tensor(rng(14).standard_normal((2, 6, 2))))
        np.testing.assert_allclose(outputs.data[:, -1, :], h.data)

    def test_single_layer_gradients(self):
        lstm = LSTM(2, 3, rng=rng(15))
        x = Tensor(rng(16).standard_normal((2, 3, 2)), requires_grad=True)
        check_gradients(lambda x: (lstm(x)[0] ** 2).sum(), [x], atol=1e-4)


class TestTemporalConv2d:
    """Channels-last ``(..., T, C)`` in, ``(..., T_out, C_out)`` out."""

    def test_valid_conv_output_length(self):
        conv = TemporalConv2d(2, 4, kernel_size=3, rng=rng(17))
        out = conv(Tensor(np.zeros((1, 5, 10, 2))))
        assert out.shape == (1, 5, 8, 4)

    def test_causal_pad_preserves_length(self):
        conv = TemporalConv2d(2, 4, kernel_size=3, dilation=2, causal_pad=True, rng=rng(18))
        out = conv(Tensor(np.zeros((1, 5, 7, 2))))
        assert out.shape == (1, 5, 7, 4)

    def test_causal_no_future_leakage(self):
        conv = TemporalConv2d(1, 1, kernel_size=3, causal_pad=True, rng=rng(19))
        x = np.zeros((1, 1, 10, 1))
        base = conv(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[..., 7, :] = 100.0  # perturb a future step
        out = conv(Tensor(x2)).data
        np.testing.assert_array_equal(out[..., :7, :], base[..., :7, :])

    def test_short_input_is_padded(self):
        conv = TemporalConv2d(1, 2, kernel_size=3, rng=rng(20))
        out = conv(Tensor(np.zeros((1, 4, 1, 1))))  # T=1 < kernel
        assert out.shape == (1, 4, 1, 2)

    def test_matches_manual_convolution(self):
        conv = TemporalConv2d(1, 1, kernel_size=2, rng=rng(21))
        x = rng(22).standard_normal((1, 1, 5, 1))
        out = conv(Tensor(x)).data[0, 0, :, 0]
        w = conv.weight.data[0, 0]
        expected = np.array([x[0, 0, t, 0] * w[0] + x[0, 0, t + 1, 0] * w[1]
                             for t in range(4)]) + conv.bias.data[0]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_any_leading_axes_are_batch_axes(self):
        conv = TemporalConv2d(2, 3, kernel_size=2, causal_pad=True, rng=rng(26))
        x = rng(27).standard_normal((4, 3, 5, 2))
        full = conv(Tensor(x)).data
        assert conv(Tensor(x[0, 1])).shape == (5, 3)
        np.testing.assert_array_equal(
            conv(Tensor(x.transpose(1, 0, 2, 3))).data,
            full.transpose(1, 0, 2, 3))

    def test_gradients(self):
        conv = TemporalConv2d(2, 3, kernel_size=2, rng=rng(23))
        x = Tensor(rng(24).standard_normal((2, 3, 5, 2)), requires_grad=True)
        check_gradients(lambda x: (conv(x) ** 2).sum(), [x], atol=1e-4)
        check_gradients(lambda w: (conv(x.detach()) ** 2).sum(), [conv.weight], atol=1e-4)

    def test_validates_input(self):
        conv = TemporalConv2d(2, 3, kernel_size=2)
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((1, 4, 6, 5))))
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros(2)))


def nchw_im2col_conv(x, weight, bias, dilation, causal, grad_out):
    """Plain-numpy NCHW reference: forward and backward of a ``(1, k)`` conv.

    ``x`` is torch's ``(B, C, N, T)``, ``grad_out`` the upstream gradient
    in ``(B, O, N, T_out)``.  Pads the time axis, gathers the windows with
    fancy indexing, transposes them to ``(B, N, T_out, C, K)`` and contracts
    one GEMM against ``weight.reshape(O, C*K).T``; the backward
    scatter-adds the window gradient tap by tap and slices the padding off.
    Returns ``(out, grad_x, grad_weight, grad_bias)``.
    """
    b, c, n, t = x.shape
    o, _, k = weight.shape
    span = (k - 1) * dilation + 1
    left = span - 1 if causal else max(0, span - t)
    padded = np.pad(x, [(0, 0)] * 3 + [(left, 0)])
    t_out = t + left - span + 1
    idx = np.arange(t_out)[:, None] + dilation * np.arange(k)[None, :]
    flat = padded[..., idx].transpose(0, 2, 3, 1, 4).reshape(-1, c * k)
    kernel = weight.reshape(o, c * k).T
    out = (flat @ kernel).reshape(b, n, t_out, o) + bias
    grad2d = grad_out.transpose(0, 2, 3, 1).reshape(-1, o)
    grad_weight = (flat.T @ grad2d).T.reshape(o, c, k)
    grad_windows = (grad2d @ kernel.T).reshape(b, n, t_out, c, k)
    grad_windows = grad_windows.transpose(0, 3, 1, 2, 4)
    grad_padded = np.zeros_like(padded)
    for j in range(k):
        grad_padded[..., dilation * j:dilation * j + t_out] += grad_windows[..., j]
    return (out.transpose(0, 3, 1, 2), grad_padded[..., left:],
            grad_weight, grad_out.sum(axis=(0, 2, 3)))


class TestTemporalConv2dOracle:
    """The channels-last conv against the torch-layout NCHW im2col path."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("kernel_size", [1, 2, 3])
    def test_bitwise_equal_to_nchw_reference(self, kernel_size, dilation,
                                             causal, dtype):
        set_default_dtype(dtype)
        conv = TemporalConv2d(3, 4, kernel_size, dilation=dilation,
                              causal_pad=causal, rng=rng(30))
        conv.bias.copy_(rng(31).standard_normal(4))
        x_nchw = rng(32).standard_normal((2, 3, 5, 4)).astype(dtype)
        x = Tensor(x_nchw.transpose(0, 2, 3, 1), requires_grad=True)
        out = conv(x)
        grad_out = rng(33).standard_normal(out.shape).astype(dtype)
        (out * Tensor(grad_out)).sum().backward()

        ref_out, ref_gx, ref_gw, ref_gb = nchw_im2col_conv(
            x_nchw, conv.weight.data, conv.bias.data, dilation, causal,
            grad_out.transpose(0, 3, 1, 2))
        assert out.dtype == dtype
        np.testing.assert_array_equal(out.data.transpose(0, 3, 1, 2), ref_out)
        np.testing.assert_array_equal(x.grad.transpose(0, 3, 1, 2), ref_gx)
        np.testing.assert_array_equal(conv.weight.grad, ref_gw)
        # The bias gradient is a reduction whose order follows the layout.
        rtol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(conv.bias.grad, ref_gb, rtol=rtol)


class TestDilatedInception:
    def test_concatenates_branches(self):
        layer = DilatedInception(2, 8, kernel_sizes=(2, 3), rng=rng(25))
        out = layer(Tensor(np.zeros((1, 4, 6, 2))))
        assert out.shape == (1, 4, 6, 8)

    @pytest.mark.parametrize("dilation", [1, 2])
    def test_every_branch_keeps_the_input_length(self, dilation):
        # MTGNN's full kernel set, several wider than the L=5 window: every
        # branch is causal-padded, so nothing is truncated.
        layer = DilatedInception(3, 8, kernel_sizes=(2, 3, 6, 7),
                                 dilation=dilation, rng=rng(28))
        x = Tensor(rng(29).standard_normal((2, 4, 5, 3)))
        for branch in layer.branches:
            assert branch(x).shape == (2, 4, 5, 2)
        out = layer(x)
        assert out.shape == (2, 4, 5, 8)
        np.testing.assert_array_equal(
            out.data, np.concatenate([b(x).data for b in layer.branches], -1))

    def test_rejects_uneven_split(self):
        with pytest.raises(ValueError):
            DilatedInception(2, 7, kernel_sizes=(2, 3))
