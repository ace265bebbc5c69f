"""Tests for the four forecasters: shapes, interfaces, determinism, learning."""

import numpy as np
import pytest

from repro.autodiff import Tensor, mse
from repro.models import (A3TGCN, ASTGCN, LSTMForecaster, MODEL_NAMES, MTGNN,
                          ModelConfig, create_model)
from repro.optim import Adam

V, L = 8, 3


def adjacency(seed=0, n=V):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return a


def batch(seed=0, s=20):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((s, L, V)), rng.standard_normal((s, V))


@pytest.fixture(params=list(MODEL_NAMES))
def any_model(request):
    return create_model(request.param, V, L, adjacency=adjacency(), seed=3)


class TestInterface:
    def test_output_shape(self, any_model):
        x, _ = batch()
        out = any_model(Tensor(x))
        assert out.shape == (20, V)

    def test_predict_numpy_roundtrip(self, any_model):
        x, _ = batch()
        out = any_model.predict(x)
        assert isinstance(out, np.ndarray)
        assert out.shape == (20, V)

    def test_predict_is_deterministic_despite_dropout(self, any_model):
        x, _ = batch()
        np.testing.assert_array_equal(any_model.predict(x), any_model.predict(x))

    def test_predict_restores_training_mode(self, any_model):
        any_model.train()
        any_model.predict(batch()[0])
        assert any_model.training

    def test_rejects_wrong_shapes(self, any_model):
        with pytest.raises(ValueError):
            any_model(Tensor(np.zeros((4, L + 1, V))))
        with pytest.raises(ValueError):
            any_model(Tensor(np.zeros((4, L, V + 1))))

    def test_seeded_construction_is_deterministic(self, any_model):
        name = type(any_model).__name__
        key = {"LSTMForecaster": "lstm", "A3TGCN": "a3tgcn",
               "ASTGCN": "astgcn", "MTGNN": "mtgnn"}[name]
        twin = create_model(key, V, L, adjacency=adjacency(), seed=3)
        x, _ = batch()
        np.testing.assert_array_equal(any_model.predict(x), twin.predict(x))

    def test_seq_len_one_works(self):
        for name in MODEL_NAMES:
            model = create_model(name, V, 1, adjacency=adjacency(), seed=0)
            out = model.predict(np.zeros((5, 1, V)))
            assert out.shape == (5, V)


class TestLearning:
    """Each model must be able to fit an easy, strongly-predictable task."""

    #: A3TGCN's GCN smoothing over a dense random graph limits per-node
    #: fitting capacity — the very weakness the paper reports (MSE ~ LSTM's).
    THRESHOLDS = {"lstm": 0.35, "a3tgcn": 0.85, "astgcn": 0.35, "mtgnn": 0.35}

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_loss_decreases_substantially(self, name):
        rng = np.random.default_rng(7)
        # AR(1)-style task: target = 0.9 * last input step (per variable).
        x = rng.standard_normal((60, L, V))
        y = 0.9 * x[:, -1, :]
        model = create_model(name, V, L, adjacency=adjacency(), seed=1)
        opt = Adam(model.parameters(), lr=0.01)
        first = None
        for _ in range(120):
            opt.zero_grad()
            loss = mse(model(Tensor(x)), y)
            loss.backward()
            opt.step()
            first = first if first is not None else loss.item()
        model.eval()
        final = mse(model(Tensor(x)), y).item()
        assert final < self.THRESHOLDS[name] * first, \
            f"{name}: {first:.3f} -> {final:.3f}"


class TestGraphHandling:
    def test_lstm_ignores_set_adjacency(self):
        model = LSTMForecaster(V, L, rng=np.random.default_rng(0))
        model.set_adjacency(adjacency())  # silently fine

    @pytest.mark.parametrize("name", ["a3tgcn", "astgcn"])
    def test_graph_models_require_adjacency(self, name):
        with pytest.raises(ValueError):
            create_model(name, V, L, adjacency=None)

    @pytest.mark.parametrize("name", ["a3tgcn", "astgcn"])
    def test_set_adjacency_changes_predictions(self, name):
        model = create_model(name, V, L, adjacency=adjacency(0), seed=0)
        x, _ = batch()
        before = model.predict(x)
        model.set_adjacency(adjacency(99))
        after = model.predict(x)
        assert not np.allclose(before, after)

    def test_graph_influences_a3tgcn_output(self):
        # Prediction for node 0 must depend on a neighbour's input history.
        model = create_model("a3tgcn", V, L, adjacency=adjacency(1), seed=0)
        x, _ = batch()
        base = model.predict(x)
        perturbed = x.copy()
        perturbed[:, :, 1] += 10.0
        assert not np.allclose(model.predict(perturbed)[:, 0], base[:, 0])


class TestMTGNN:
    def test_learned_graph_export(self):
        model = create_model("mtgnn", V, L, adjacency=adjacency(), seed=0)
        g = model.learned_graph()
        assert g.shape == (V, V)
        assert (g >= 0).all()

    def test_static_mode_requires_graph(self):
        with pytest.raises(ValueError):
            MTGNN(V, L, initial_adjacency=None, use_graph_learning=False)

    def test_static_mode_uses_fixed_graph(self):
        model = MTGNN(V, L, initial_adjacency=adjacency(2),
                      use_graph_learning=False, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(model.learned_graph(), adjacency(2))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("sparse", ["never", "always"])
    def test_static_graph_forecasts_in_the_model_dtype(self, dtype, sparse):
        # The static operators are normalized in float64 and cast, so a
        # float32 model does not promote its activations to float64.
        from repro.autodiff import default_dtype
        from repro.nn.sparse import set_sparse_mode

        set_sparse_mode(sparse)  # the suite fixture restores the mode
        with default_dtype(dtype):
            model = MTGNN(V, L, initial_adjacency=adjacency(2),
                          use_graph_learning=False,
                          rng=np.random.default_rng(0))
            x, _ = batch()
            out = model(Tensor(x.astype(dtype)))
            props = model._static_propagations()
        assert {type(op).__name__ for op in props} == {
            "CSRMatrix" if sparse == "always" else "Tensor"}
        assert out.dtype == np.dtype(dtype)
        assert model.predict(x).dtype == np.dtype(dtype)

    def test_graph_learning_updates_graph_during_training(self):
        model = create_model("mtgnn", V, L, adjacency=adjacency(3), seed=0)
        before = model.learned_graph()
        x, y = batch()
        opt = Adam(model.parameters(), lr=0.01)
        for _ in range(10):
            opt.zero_grad()
            loss = mse(model(Tensor(x)), y)
            loss.backward()
            opt.step()
        after = model.learned_graph()
        assert not np.allclose(before, after)

    def test_random_start_without_adjacency(self):
        model = create_model("mtgnn", V, L, adjacency=None, seed=0)
        out = model.predict(batch()[0])
        assert out.shape == (20, V)

    def test_static_graph_reaches_output(self):
        # Regression: the final skip connection (skipE) must carry the last
        # layer's graph convolution into the head — without it the graph
        # has no influence in a 1-layer MTGNN.
        x, _ = batch()
        base = MTGNN(V, L, initial_adjacency=adjacency(5), num_layers=1,
                     use_graph_learning=False, rng=np.random.default_rng(3))
        out_a = base.predict(x)
        base.set_adjacency(adjacency(77))
        out_b = base.predict(x)
        assert not np.allclose(out_a, out_b)

    def test_graph_learner_receives_gradients(self):
        model = create_model("mtgnn", V, L, adjacency=adjacency(6), seed=0)
        x, y = batch()
        loss = mse(model(Tensor(x)), y)
        loss.backward()
        assert model.graph_learner.emb1.grad is not None
        assert np.abs(model.graph_learner.emb1.grad).sum() > 0

    def test_set_adjacency_warm_starts_learner(self):
        model = create_model("mtgnn", V, L, adjacency=adjacency(4), seed=0)
        before = model.learned_graph()
        model.set_adjacency(adjacency(77))
        after = model.learned_graph()
        assert not np.allclose(before, after)

    def test_learned_graph_is_normalized_once_per_forward(self, monkeypatch):
        from repro.nn import MixHopPropagation

        calls = []
        original = MixHopPropagation._row_normalize
        monkeypatch.setattr(MixHopPropagation, "_row_normalize", staticmethod(
            lambda a: calls.append(a.shape) or original(a)))
        model = MTGNN(V, L, initial_adjacency=adjacency(8), num_layers=3,
                      rng=np.random.default_rng(0))
        model(Tensor(batch()[0]))
        assert calls == [(V, V), (V, V)]  # A and A^T, shared by all layers

    def test_dropout_mask_is_drawn_in_torch_layout_order(self):
        # Node-major (V, S, T, C) activations holding some of the L logical
        # time positions meet, at those positions, the mask a full
        # (S, C, V, L) layout would draw: the same generator state gives
        # the same draw to the same activation in either layout, and the
        # stream advances by the whole draw.
        model = MTGNN(V, L, initial_adjacency=adjacency(9), dropout=0.5,
                      rng=np.random.default_rng(0))
        model.train()
        for positions in (slice(None), slice(0, None, 2), slice(1, None, 2),
                          slice(-1, None)):
            kept = len(range(L)[positions])
            x = np.random.default_rng(1).standard_normal((V, 4, kept, 6))
            state = model.dropout.rng.bit_generator.state
            out = model._dropout(Tensor(x), positions).data
            after = model.dropout.rng.bit_generator.state
            model.dropout.rng.bit_generator.state = state
            mask = model.dropout._draw_mask((4, 6, V, L), x.dtype)
            assert model.dropout.rng.bit_generator.state == after
            np.testing.assert_array_equal(
                out, x * mask[..., positions].transpose(2, 0, 3, 1))


class TestRegistry:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            create_model("transformer", V, L)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(hidden_size=0)
        with pytest.raises(ValueError):
            ModelConfig(dropout=1.0)

    def test_config_controls_capacity(self):
        small = create_model("lstm", V, L, config=ModelConfig(hidden_size=8), seed=0)
        large = create_model("lstm", V, L, config=ModelConfig(hidden_size=32), seed=0)
        assert small.num_parameters() < large.num_parameters()

    def test_mtgnn_static_via_config(self):
        cfg = ModelConfig(mtgnn_use_graph_learning=False)
        model = create_model("mtgnn", V, L, adjacency=adjacency(), config=cfg, seed=0)
        assert model.graph_learner is None
