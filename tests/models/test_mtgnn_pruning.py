"""Generated oracle for MTGNN's receptive-field-pruned forward.

MTGNN computes, in every layer, only the time positions the forecast
reads (see :func:`repro.models.mtgnn.kept_positions`).  The oracle here is
the full-window forward — every layer convolving, gating, dropping out,
graph-mixing and normalizing all ``L`` positions — run on the same
modules.  For any shape, dtype and graph learner, with the same dropout
RNG state, the two forwards must agree bitwise in eval and train mode,
consume the same random numbers, and give the same parameter gradients
up to summation order.

The pruned backward leaves out terms that are exactly zero in the full
one, so gradients differ by rounding only.  Rounding error scales with
the terms summed, not with a result that cancels, so the tolerance is
relative to the model's largest gradient entry: the graph learner's
embedding gradients can cancel to ~1e-3 of it, where a per-tensor
relative error reaches ~4e-5 in float32 (~3e-14 in float64).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, default_dtype
from repro.models import MTGNN
from repro.models.mtgnn import kept_positions
from repro.nn import GTSGraphLearner

GRAPHS = ("learned", "static", "random-start", "gts")
GRAD_RTOL = {"float32": 1e-5, "float64": 1e-12}


def full_window_forward(model: MTGNN, inputs: Tensor) -> Tensor:
    """The unpruned MTGNN forward: every layer computes all L positions."""
    samples = inputs.shape[0]
    propagations = (model._learned_propagations() if model.use_graph_learning
                    else model._static_propagations())
    x = inputs.transpose(2, 0, 1).reshape(
        model.num_variables, samples, model.seq_len, 1)
    skip = model.skip_start(x)
    x = model.start_conv(x)
    for layer in range(model.num_layers):
        residual = x
        filt = model.filter_convs[layer](x).tanh()
        gate = model.gate_convs[layer](x).sigmoid()
        # The mask is drawn at the (S, C, V, L) shape of torch's layout.
        x = model.dropout((filt * gate).transpose(1, 3, 0, 2)) \
            .transpose(2, 0, 3, 1)
        skip = skip + model.skip_convs[layer](x)
        x = model._graph_mix(x, layer, propagations)
        x = x + residual
        x = model.norms[layer](x)
    skip = skip + model.skip_end(x)
    final = skip[:, :, -1].transpose(1, 0, 2)
    hidden = model.head_hidden(final.relu()).relu()
    return model.head_out(hidden).reshape(samples, model.num_variables)


def build(graph: str, num_variables: int, seq_len: int, num_layers: int,
          hidden: int, seed: int) -> MTGNN:
    rng = np.random.default_rng(seed)
    adjacency = rng.random((num_variables, num_variables))
    adjacency = (adjacency + adjacency.T) / 2
    np.fill_diagonal(adjacency, 0.0)
    kwargs = dict(num_layers=num_layers, hidden_size=hidden, dropout=0.3,
                  rng=np.random.default_rng(seed + 1))
    if graph == "learned":
        return MTGNN(num_variables, seq_len, initial_adjacency=adjacency,
                     top_k=max(1, num_variables // 2), **kwargs)
    if graph == "static":
        return MTGNN(num_variables, seq_len, initial_adjacency=adjacency,
                     use_graph_learning=False, **kwargs)
    if graph == "random-start":
        return MTGNN(num_variables, seq_len, initial_adjacency=None, **kwargs)
    series = rng.standard_normal((12, num_variables))
    learner = GTSGraphLearner(num_variables, series, hidden=4,
                              rng=np.random.default_rng(seed + 2))
    return MTGNN(num_variables, seq_len, custom_graph_learner=learner,
                 **kwargs)


def run(model: MTGNN, forward, inputs: np.ndarray, weights: np.ndarray,
        state: dict):
    """Output, parameter gradients and RNG state after one forward from
    dropout RNG ``state``."""
    model.dropout.rng.bit_generator.state = state
    for p in model.parameters():
        p.grad = None
    out = forward(model, Tensor(inputs))
    (out * Tensor(weights)).sum().backward()
    grads = [None if p.grad is None else p.grad.copy()
             for p in model.parameters()]
    return out.data.copy(), grads, model.dropout.rng.bit_generator.state


def pruned_forward(model: MTGNN, inputs: Tensor) -> Tensor:
    return model(inputs)


@settings(max_examples=60, deadline=None)
@given(num_layers=st.integers(1, 3), seq_len=st.integers(1, 9),
       hidden=st.sampled_from([4, 8]), num_variables=st.integers(2, 5),
       samples=st.integers(2, 4), dtype=st.sampled_from(["float32", "float64"]),
       graph=st.sampled_from(GRAPHS), seed=st.integers(0, 2 ** 16))
def test_pruned_forward_matches_full_window(num_layers, seq_len, hidden,
                                            num_variables, samples, dtype,
                                            graph, seed):
    with default_dtype(dtype):
        model = build(graph, num_variables, seq_len, num_layers, hidden,
                      seed)
        rng = np.random.default_rng(seed + 3)
        inputs = rng.standard_normal(
            (samples, seq_len, num_variables)).astype(dtype)
        weights = rng.standard_normal((samples, num_variables)).astype(dtype)
        state = model.dropout.rng.bit_generator.state
        for training in (False, True):
            model.train(training)
            out, grads, after = run(model, pruned_forward, inputs, weights,
                                    state)
            ref_out, ref_grads, ref_after = run(
                model, full_window_forward, inputs, weights, state)
            assert out.dtype == ref_out.dtype
            np.testing.assert_array_equal(out, ref_out)
            assert after == ref_after
            rtol = GRAD_RTOL[dtype]
            scale = max(float(np.abs(ref).max())
                        for ref in ref_grads if ref is not None)
            for (name, _), grad, ref in zip(model.named_parameters(), grads,
                                            ref_grads):
                assert (grad is None) == (ref is None), name
                if ref is not None:
                    assert grad.dtype == ref.dtype, name
                    np.testing.assert_allclose(grad, ref, rtol=rtol,
                                               atol=rtol * scale,
                                               err_msg=name)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_paper_shape_batch_matches_full_window(dtype):
    # V=26, L=5, hidden 32, a training-sized batch: every GEMM has
    # thousands of rows.
    with default_dtype(dtype):
        model = build("learned", 26, 5, 2, 32, seed=5)
        rng = np.random.default_rng(6)
        inputs = rng.standard_normal((64, 5, 26)).astype(dtype)
        weights = rng.standard_normal((64, 26)).astype(dtype)
        state = model.dropout.rng.bit_generator.state
        model.train()
        out, _, after = run(model, pruned_forward, inputs, weights, state)
        ref_out, _, ref_after = run(model, full_window_forward, inputs,
                                    weights, state)
    np.testing.assert_array_equal(out, ref_out)
    assert after == ref_after


class TestKeptPositions:
    def test_paper_shape(self):
        # Start conv: all 5 steps; layer 0: {0, 2, 4}; layer 1: {4}.
        assert kept_positions(5, 2) == ((1, 5), (2, 3), (4, 1))

    @pytest.mark.parametrize("seq_len, num_layers, expected", [
        (1, 1, ((1, 1), (2, 1))),
        (9, 2, ((1, 7), (2, 3), (4, 1))),
        (9, 3, ((1, 9), (2, 5), (4, 3), (8, 1))),
    ])
    def test_grids_reach_exactly_the_receptive_field(self, seq_len,
                                                     num_layers, expected):
        assert kept_positions(seq_len, num_layers) == expected

    @pytest.mark.parametrize("seq_len", range(1, 12))
    @pytest.mark.parametrize("num_layers", [1, 2, 3, 4])
    def test_every_read_position_is_kept(self, seq_len, num_layers):
        grids = kept_positions(seq_len, num_layers)

        def positions(stride, count):
            return {seq_len - 1 - m * stride for m in range(count)}

        assert positions(*grids[-1]) == {seq_len - 1}
        for layer in range(num_layers):
            kept_in = positions(*grids[layer])
            assert min(kept_in) >= 0
            reads = {t - j * 2 ** layer for t in positions(*grids[layer + 1])
                     for j in range(3)}
            assert {t for t in reads if t >= 0} <= kept_in
