"""Hypothesis property tests for the autodiff engine's fast paths.

The engine has specialized GEMM routes (2-D weights, 2-D propagation
matrices) whose results must be indistinguishable from the generic batched
path, and structural identities (softmax gradient orthogonal to ones,
linearity of backward) that hold for every input.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff import Tensor, softmax

floats = st.floats(-3, 3)


class TestMatmulFastPaths:
    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.float64, (2, 3, 4), elements=floats),
           hnp.arrays(np.float64, (4, 5), elements=floats))
    def test_weight_path_matches_numpy(self, a, b):
        out = (Tensor(a) @ Tensor(b)).data
        np.testing.assert_allclose(out, a @ b, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.float64, (4, 4), elements=floats),
           hnp.arrays(np.float64, (2, 3, 4, 5), elements=floats))
    def test_propagation_path_matches_numpy(self, a, b):
        out = (Tensor(a) @ Tensor(b)).data
        np.testing.assert_allclose(out, a @ b, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(hnp.arrays(np.float64, (3, 4), elements=floats),
           hnp.arrays(np.float64, (4, 2), elements=floats))
    def test_weight_gradient_matches_generic_formula(self, a, b):
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        ones = np.ones((3, 2))
        np.testing.assert_allclose(ta.grad, ones @ b.T, atol=1e-10)
        np.testing.assert_allclose(tb.grad, a.T @ ones, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(hnp.arrays(np.float64, (3, 3), elements=floats),
           hnp.arrays(np.float64, (2, 3, 2), elements=floats))
    def test_propagation_gradient_matches_generic_formula(self, a, b):
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        ones = np.ones((2, 3, 2))
        np.testing.assert_allclose(
            ta.grad, sum(ones[i] @ b[i].T for i in range(2)), atol=1e-10)
        np.testing.assert_allclose(
            tb.grad, np.stack([a.T @ ones[i] for i in range(2)]), atol=1e-10)


class TestStructuralIdentities:
    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(np.float64, (3, 5), elements=floats))
    def test_softmax_gradient_orthogonal_to_ones(self, x):
        # d softmax / dx applied to any upstream grad sums to ~0 per row
        # when the upstream grad is constant within rows... equivalently,
        # for loss = sum(softmax * c) with c constant per row, grad is 0.
        t = Tensor(x, requires_grad=True)
        (softmax(t, axis=1) * 2.5).sum().backward()
        np.testing.assert_allclose(t.grad, 0.0, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(np.float64, (6,), elements=floats))
    def test_backward_is_linear_in_seed(self, x):
        def grad_with_seed(scale):
            t = Tensor(x, requires_grad=True)
            y = t.tanh() * t
            y.backward(np.full(6, scale))
            return t.grad

        g1 = grad_with_seed(1.0)
        g3 = grad_with_seed(3.0)
        np.testing.assert_allclose(g3, 3.0 * g1, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(np.float64, (2, 7, 3), elements=floats),
           st.integers(1, 3))
    def test_pad_then_slice_is_identity(self, x, left):
        t = Tensor(x, requires_grad=True)
        padded = t.unfold_time(1, left_pad=left)
        np.testing.assert_array_equal(padded.data[:, :left], 0.0)
        recovered = padded[:, left:left + 7]
        np.testing.assert_allclose(recovered.data, x)
        recovered.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(x))

    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(np.float64, (2, 8, 3), elements=floats), st.integers(1, 4))
    def test_unfold_size_one_is_identity(self, x, dilation):
        t = Tensor(x)
        windows = t.unfold_time(1, dilation=dilation)
        np.testing.assert_allclose(windows.data, x)

    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(np.float64, (2, 6, 3), elements=floats),
           st.integers(1, 3), st.integers(1, 2), st.integers(0, 4))
    def test_unfold_time_matches_padded_gather(self, x, size, dilation, left):
        span = (size - 1) * dilation + 1   # <= 5: always fits the 6 steps
        padded = np.concatenate([np.zeros((2, left, 3)), x], axis=1)
        t_out = 6 + left - span + 1
        taps = np.arange(t_out)[:, None] + dilation * np.arange(size)
        # (2, T_out, K, C) -> channel-major (2, T_out, C*K)
        expected = padded[:, taps].transpose(0, 1, 3, 2).reshape(2, t_out, -1)
        t = Tensor(x, requires_grad=True)
        windows = t.unfold_time(size, dilation=dilation, left_pad=left)
        np.testing.assert_array_equal(windows.data, expected)
        # Adjoint: the gradient counts how many windows read each step.
        windows.sum().backward()
        counts = np.zeros(6 + left)
        np.add.at(counts, taps.ravel(), 1.0)
        np.testing.assert_array_equal(
            t.grad, np.broadcast_to(counts[left:, None], x.shape))

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, (2, 7, 3), elements=floats),
           st.integers(1, 3), st.integers(1, 3), st.integers(0, 4),
           st.integers(-9, 9), st.integers(1, 4))
    def test_unfold_time_keep_equals_slicing_the_windows(
            self, x, size, dilation, left, start, step):
        # keep builds only some windows; values and the adjoint must equal
        # building them all and slicing.
        if (size - 1) * dilation + 1 > 7 + left:
            return
        keep = slice(start, None, step)
        weights = np.random.default_rng(0).standard_normal(x.shape[:1] + (
            len(range(7 + left - (size - 1) * dilation)[keep]), 3 * size))
        kept_in, full_in = (Tensor(x, requires_grad=True) for _ in range(2))
        kept = kept_in.unfold_time(size, dilation=dilation, left_pad=left,
                                   keep=keep)
        full = full_in.unfold_time(size, dilation=dilation,
                                   left_pad=left)[:, keep]
        np.testing.assert_array_equal(kept.data, full.data)
        (kept * Tensor(weights)).sum().backward()
        (full * Tensor(weights)).sum().backward()
        np.testing.assert_array_equal(kept_in.grad, full_in.grad)

    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(np.float64, (3, 4), elements=floats))
    def test_transpose_involution(self, x):
        t = Tensor(x, requires_grad=True)
        roundtrip = t.T.T
        np.testing.assert_allclose(roundtrip.data, x)
        roundtrip.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(x))
