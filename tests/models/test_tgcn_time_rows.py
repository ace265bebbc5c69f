"""Generated oracle for the time-shared T-GCN input stage.

A3TGCN and T-GCN run their input-only graph convolutions, and the input
halves of the gate affines, once per time row laid out by
:func:`repro.models.tgcn.time_rows`, not once per (window, step).  The
oracle here is the per-(window, step) forward of the published cell —
at every step of every window, the gates read ``concat([GC(x_t), h])``
through the full ``gates`` and ``candidate`` affines — run on the same
modules.  For sliding, non-sliding and one-window batches, in both
dtypes, the two forwards must agree with the same dropout RNG state,
consume the same random numbers, and give the same gradients.

Splitting each gate GEMM into an input half and a hidden half changes
the summation order, so values agree to rounding, not bitwise: the
tolerance is relative to the largest entry of the compared result.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, concat, default_dtype, softmax, stack
from repro.autodiff.gradcheck import check_gradients
from repro.models import A3TGCN, TGCNCell, TGCNForecaster
from repro.models.tgcn import time_rows, windows_slide

RTOL = {"float32": 2e-5, "float64": 1e-12}
KINDS = ("sliding", "reversed", "repeated", "random")


def reference_states(cell: TGCNCell, windows: Tensor) -> list:
    """The per-(window, step) T-GCN unroll: one full cell step per step."""
    samples, seq_len, nodes = windows.shape
    h = cell.hidden_size
    hidden = cell.initial_state(samples, nodes)
    states = []
    for t in range(seq_len):
        x = windows[:, t, :].reshape(samples, nodes, 1)
        gc = cell.graph_conv2(cell.graph_conv1(x).relu())
        gates = cell.gates(concat([gc, hidden], axis=-1)).sigmoid()
        update = gates[..., :h]
        reset = gates[..., h:]
        candidate = cell.candidate(
            concat([gc, reset * hidden], axis=-1)).tanh()
        hidden = update * hidden + (1.0 - update) * candidate
        states.append(hidden)
    return states


def reference_forward(model, windows: Tensor) -> Tensor:
    states = reference_states(model.cell, windows)
    context = states[-1]
    if isinstance(model, A3TGCN) and len(states) > 1:
        weights = softmax(model.attention, axis=0).reshape(
            1, model.seq_len, 1, 1)
        context = (stack(states, axis=1) * weights).sum(axis=1)
    out = model.head(model.dropout(context))
    return out.reshape(windows.shape[0], model.num_variables)


def make_windows(kind: str, samples: int, seq_len: int, nodes: int,
                 rng: np.random.Generator) -> np.ndarray:
    """A ``(S, L, V)`` batch: ``sliding`` windows of one series; the same
    windows ``reversed`` (equal rows, but no window is its predecessor
    shifted); one window ``repeated``; or iid ``random`` values."""
    if kind == "sliding":
        series = rng.standard_normal((samples + seq_len - 1, nodes))
        return np.stack([series[s:s + seq_len] for s in range(samples)])
    if kind == "reversed":
        return make_windows("sliding", samples, seq_len, nodes,
                            rng)[::-1].copy()
    if kind == "repeated":
        window = rng.standard_normal((1, seq_len, nodes))
        return np.repeat(window, samples, axis=0)
    return rng.standard_normal((samples, seq_len, nodes))


def build(model_name: str, nodes: int, seq_len: int, hidden: int, seed: int):
    rng = np.random.default_rng(seed)
    adjacency = rng.random((nodes, nodes))
    adjacency = (adjacency + adjacency.T) / 2
    np.fill_diagonal(adjacency, 0.0)
    cls = A3TGCN if model_name == "a3tgcn" else TGCNForecaster
    return cls(nodes, seq_len, adjacency, hidden_size=hidden, dropout=0.3,
               rng=np.random.default_rng(seed + 1))


def run(model, forward, inputs: np.ndarray, weights: np.ndarray, state: dict,
        input_grad: bool):
    """Output, input and parameter gradients, and RNG state after one
    forward from dropout RNG ``state``."""
    model.dropout.rng.bit_generator.state = state
    for p in model.parameters():
        p.grad = None
    windows = Tensor(inputs, requires_grad=input_grad)
    out = forward(model, windows)
    (out * Tensor(weights)).sum().backward()
    grads = [windows.grad] + [p.grad for p in model.parameters()]
    return (out.data.copy(), [None if g is None else g.copy() for g in grads],
            model.dropout.rng.bit_generator.state)


def assert_close(actual, expected, dtype, name=""):
    rtol = RTOL[dtype]
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    np.testing.assert_allclose(actual, expected, rtol=rtol,
                               atol=rtol * scale, err_msg=name)


@settings(max_examples=60, deadline=None)
@given(model_name=st.sampled_from(["a3tgcn", "tgcn"]),
       kind=st.sampled_from(KINDS), samples=st.integers(1, 5),
       seq_len=st.sampled_from([1, 2, 5]), nodes=st.integers(2, 5),
       hidden=st.sampled_from([4, 8]),
       dtype=st.sampled_from(["float32", "float64"]),
       input_grad=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_time_shared_forward_matches_per_step_reference(
        model_name, kind, samples, seq_len, nodes, hidden, dtype, input_grad,
        seed):
    with default_dtype(dtype):
        model = build(model_name, nodes, seq_len, hidden, seed)
        rng = np.random.default_rng(seed + 2)
        inputs = make_windows(kind, samples, seq_len, nodes,
                              rng).astype(dtype)
        weights = rng.standard_normal((samples, nodes)).astype(dtype)
        state = model.dropout.rng.bit_generator.state
        for training in (False, True):
            model.train(training)
            out, grads, after = run(model, lambda m, x: m(x), inputs,
                                    weights, state, input_grad)
            ref_out, ref_grads, ref_after = run(
                model, reference_forward, inputs, weights, state, input_grad)
            assert out.dtype == ref_out.dtype == np.dtype(dtype)
            assert after == ref_after
            assert_close(out, ref_out, dtype)
            scale = max(float(np.abs(g).max())
                        for g in ref_grads if g is not None)
            names = ["inputs"] + [n for n, _ in model.named_parameters()]
            for name, grad, ref in zip(names, grads, ref_grads):
                assert (grad is None) == (ref is None), name
                if ref is not None:
                    assert grad.dtype == ref.dtype, name
                    np.testing.assert_allclose(
                        grad, ref, rtol=RTOL[dtype],
                        atol=RTOL[dtype] * scale, err_msg=name)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), samples=st.integers(1, 5),
       seq_len=st.sampled_from([1, 2, 5]), nodes=st.integers(1, 4),
       lead=st.sampled_from([(), (1,), (3,)]),
       dtype=st.sampled_from(["float32", "float64"]),
       seed=st.integers(0, 2 ** 16))
def test_step_slices_read_every_window_step(kind, samples, seq_len, nodes,
                                            lead, dtype, seed):
    rng = np.random.default_rng(seed)
    batches = [make_windows(kind, samples, seq_len, nodes, rng)
               for _ in range(int(np.prod(lead)))]
    inputs = np.stack(batches).reshape(
        *lead, samples, seq_len, nodes).astype(dtype)
    rows, stride = time_rows(Tensor(inputs))
    shared = windows_slide(inputs)
    assert stride == (1 if shared else samples)
    assert rows.shape == (*lead, samples + seq_len - 1 if shared
                          else samples * seq_len, nodes, 1)
    for t in range(seq_len):
        step = rows.data[..., t * stride:t * stride + samples, :, 0]
        np.testing.assert_array_equal(step, inputs[..., :, t, :])
    if kind == "sliding" or samples == 1 or seq_len == 1:
        assert shared
    if kind in ("reversed", "random") and samples > 1 and seq_len > 1:
        assert not shared


class TestLayout:
    def test_equal_rows_without_a_slide_take_the_step_major_layout(self):
        # Every window is the same: rows repeat across windows, but no
        # window is its predecessor shifted by one step.
        window = np.arange(6.0).reshape(1, 3, 2)
        rows, stride = time_rows(Tensor(np.repeat(window, 4, axis=0)))
        assert (rows.shape[0], stride) == (12, 4)

    def test_signed_zero_breaks_a_slide(self):
        series = np.zeros((4, 2))
        windows = np.stack([series[s:s + 2] for s in range(3)])
        assert windows_slide(windows)
        windows[1, 0, 0] = -0.0
        assert not windows_slide(windows)

    def test_batches_that_disagree_raise(self):
        rng = np.random.default_rng(0)
        sliding = make_windows("sliding", 3, 2, 2, rng)
        with pytest.raises(ValueError, match="time-row layouts"):
            windows_slide(np.stack([sliding, sliding[::-1]]))

    def test_windows_that_require_grad_take_the_step_major_layout(self):
        sliding = make_windows("sliding", 3, 2, 2, np.random.default_rng(1))
        assert time_rows(Tensor(sliding))[1] == 1
        assert time_rows(Tensor(sliding, requires_grad=True))[1] == 3


@pytest.mark.parametrize("kind", ["sliding", "random"])
def test_cell_gradients(kind):
    # Sliding windows that do not require grad share their rows; the
    # input gradient is then checked on the step-major layout.
    with default_dtype("float64"):
        rng = np.random.default_rng(3)
        adjacency = rng.random((3, 3))
        np.fill_diagonal(adjacency, 0.0)
        cell = TGCNCell(3, adjacency, rng=np.random.default_rng(4))
        inputs = make_windows(kind, 3, 3, 3, rng)
        weights = Tensor(rng.standard_normal((3, 3, 3, 3)))

        def loss(windows, *params):
            return (stack(cell(windows), axis=1) * weights).sum()

        params = list(cell.parameters())
        check_gradients(loss, [Tensor(inputs), *params], atol=1e-6)
        check_gradients(loss, [Tensor(inputs, requires_grad=True)],
                        atol=1e-6)
