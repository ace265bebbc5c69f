"""Tests for attention mechanisms and graph convolution layers."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients
from repro.nn import (ChebConv, GCNConv, GraphLearner, MixHopPropagation,
                      SpatialAttention, TemporalAttention,
                      TemporalAttentionPool, scaled_laplacian)


def rng(seed=0):
    return np.random.default_rng(seed)


def random_adjacency(n, seed=0, density=0.5):
    r = np.random.default_rng(seed)
    a = (r.random((n, n)) < density) * r.random((n, n))
    np.fill_diagonal(a, 0.0)
    return (a + a.T) / 2


class TestTemporalAttentionPool:
    def test_output_shape(self):
        pool = TemporalAttentionPool(8, rng=rng())
        out = pool(Tensor(rng(1).standard_normal((4, 5, 8))))
        assert out.shape == (4, 8)

    def test_weights_sum_to_one(self):
        pool = TemporalAttentionPool(6, 4, rng=rng(2))
        w = pool.attention_weights(Tensor(rng(3).standard_normal((3, 7, 6))))
        assert w.shape == (3, 7)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-10)

    def test_single_step_is_identity(self):
        pool = TemporalAttentionPool(5, rng=rng(4))
        x = rng(5).standard_normal((2, 1, 5))
        np.testing.assert_allclose(pool(Tensor(x)).data, x[:, 0, :], atol=1e-12)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            TemporalAttentionPool(5)(Tensor(np.zeros((2, 5))))

    def test_gradients(self):
        pool = TemporalAttentionPool(3, rng=rng(6))
        x = Tensor(rng(7).standard_normal((2, 4, 3)), requires_grad=True)
        check_gradients(lambda x: (pool(x) ** 2).sum(), [x], atol=1e-4)


class TestASTGCNAttention:
    def test_spatial_attention_rows_are_distributions(self):
        att = SpatialAttention(num_nodes=6, in_channels=2, num_steps=4, rng=rng(8))
        s = att(Tensor(rng(9).standard_normal((3, 6, 2, 4))))
        assert s.shape == (3, 6, 6)
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_temporal_attention_rows_are_distributions(self):
        att = TemporalAttention(num_nodes=6, in_channels=2, num_steps=4, rng=rng(10))
        e = att(Tensor(rng(11).standard_normal((3, 6, 2, 4))))
        assert e.shape == (3, 4, 4)
        np.testing.assert_allclose(e.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_shape_validation(self):
        att = SpatialAttention(num_nodes=6, in_channels=2, num_steps=4)
        with pytest.raises(ValueError):
            att(Tensor(np.zeros((3, 5, 2, 4))))
        t_att = TemporalAttention(num_nodes=6, in_channels=2, num_steps=4)
        with pytest.raises(ValueError):
            t_att(Tensor(np.zeros((3, 6, 2, 5))))

    def test_spatial_attention_gradient(self):
        att = SpatialAttention(num_nodes=4, in_channels=1, num_steps=3, rng=rng(12))
        x = Tensor(rng(13).standard_normal((2, 4, 1, 3)), requires_grad=True)
        check_gradients(lambda x: (att(x) ** 2).sum(), [x], atol=1e-4)


class TestScaledLaplacian:
    def test_spectrum_in_unit_interval(self):
        lap = scaled_laplacian(random_adjacency(8, 14))
        eig = np.linalg.eigvalsh(lap)
        assert eig.min() >= -1.0 - 1e-9
        assert eig.max() <= 1.0 + 1e-9

    def test_empty_graph_gives_identity(self):
        # Isolated nodes: L = I - 0 = I, lambda_max = 1 -> scaled = 2I/1 - I = I.
        np.testing.assert_allclose(scaled_laplacian(np.zeros((4, 4))), np.eye(4))

    def test_self_loop_only_graph_handled(self):
        # Pure self-loop graph normalizes to I, so L = 0; guard avoids 0/0.
        lap = scaled_laplacian(np.eye(4))
        assert np.isfinite(lap).all()

    def test_asymmetric_input_is_symmetrized(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        lap = scaled_laplacian(a)
        np.testing.assert_allclose(lap, lap.T, atol=1e-12)


class TestGCNConv:
    def test_shape_and_propagation(self):
        adj = random_adjacency(5, 15)
        conv = GCNConv(3, 7, adj, rng=rng(16))
        out = conv(Tensor(rng(17).standard_normal((4, 5, 3))))
        assert out.shape == (4, 5, 7)

    def test_isolated_graph_reduces_to_linear(self):
        conv = GCNConv(3, 3, np.zeros((4, 4)), rng=rng(18))
        x = rng(19).standard_normal((2, 4, 3))
        expected = x @ conv.linear.weight.data.T + conv.linear.bias.data
        np.testing.assert_allclose(conv(Tensor(x)).data, expected, atol=1e-12)

    def test_set_adjacency_swaps_graph(self):
        conv = GCNConv(2, 2, np.zeros((3, 3)), rng=rng(20))
        x = Tensor(rng(21).standard_normal((1, 3, 2)))
        before = conv(x).data.copy()
        conv.set_adjacency(random_adjacency(3, 22, density=1.0))
        after = conv(x).data
        assert not np.allclose(before, after)

    def test_validates_shape(self):
        conv = GCNConv(2, 2, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((1, 4, 2))))

    def test_gradient(self):
        conv = GCNConv(2, 3, random_adjacency(4, 23), rng=rng(24))
        x = Tensor(rng(25).standard_normal((2, 4, 2)), requires_grad=True)
        check_gradients(lambda x: (conv(x) ** 2).sum(), [x], atol=1e-4)


class TestChebConv:
    def test_shape(self):
        conv = ChebConv(2, 5, random_adjacency(6, 26), order=3, rng=rng(27))
        out = conv(Tensor(rng(28).standard_normal((3, 6, 2))))
        assert out.shape == (3, 6, 5)

    def test_order_one_ignores_graph(self):
        conv = ChebConv(2, 2, random_adjacency(4, 29), order=1, rng=rng(30))
        x = rng(31).standard_normal((1, 4, 2))
        expected = x @ conv.weights[0].weight.data.T + conv.weights[0].bias.data
        np.testing.assert_allclose(conv(Tensor(x)).data, expected, atol=1e-12)

    def test_spatial_attention_modulation_changes_output(self):
        conv = ChebConv(2, 2, random_adjacency(4, 32, density=1.0), order=3, rng=rng(33))
        x = Tensor(rng(34).standard_normal((2, 4, 2)))
        plain = conv(x).data
        attention = Tensor(np.full((2, 4, 4), 0.25))
        modulated = conv(x, spatial_attention=attention).data
        assert not np.allclose(plain, modulated)

    def test_gradient_through_attention(self):
        conv = ChebConv(1, 2, random_adjacency(3, 35), order=2, rng=rng(36))
        x = Tensor(rng(37).standard_normal((1, 3, 1)), requires_grad=True)
        att = Tensor(rng(38).random((1, 3, 3)), requires_grad=True)
        check_gradients(lambda x, a: (conv(x, spatial_attention=a) ** 2).sum(),
                        [x, att], atol=1e-4)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            ChebConv(1, 1, np.zeros((2, 2)), order=0)


class TestMixHop:
    def test_shape(self):
        layer = MixHopPropagation(3, 6, depth=2, rng=rng(39))
        out = layer(Tensor(rng(40).standard_normal((5, 2, 3))),  # (V, S, C)
                    random_adjacency(5, 41))
        assert out.shape == (5, 2, 6)

    def test_accepts_tensor_adjacency_and_backprops_into_it(self):
        layer = MixHopPropagation(2, 2, depth=1, rng=rng(42))
        x = Tensor(rng(43).standard_normal((4, 1, 2)))
        adj = Tensor(rng(44).random((4, 4)), requires_grad=True)
        (layer(x, adj) ** 2).sum().backward()
        assert adj.grad is not None
        assert np.abs(adj.grad).sum() > 0

    def test_gradient_wrt_input(self):
        layer = MixHopPropagation(2, 2, depth=2, rng=rng(45))
        adj = random_adjacency(3, 46)
        x = Tensor(rng(47).standard_normal((3, 1, 2)), requires_grad=True)
        check_gradients(lambda x: (layer(x, adj) ** 2).sum(), [x], atol=1e-4)

    def test_rejects_feature_major_input(self):
        layer = MixHopPropagation(2, 2, depth=1, rng=rng(48))
        with pytest.raises(ValueError, match="node-major"):
            layer(Tensor(np.ones((1, 4, 2))), random_adjacency(4, 49))

    def test_validates_hyperparameters(self):
        with pytest.raises(ValueError):
            MixHopPropagation(2, 2, depth=0)
        with pytest.raises(ValueError):
            MixHopPropagation(2, 2, beta=1.5)


class TestGraphLearner:
    def test_adjacency_properties(self):
        learner = GraphLearner(10, embedding_dim=4, top_k=3, rng=rng(48))
        adj = learner().data
        assert adj.shape == (10, 10)
        assert (adj >= 0).all()
        assert ((adj > 0).sum(axis=1) <= 3).all()

    def test_dense_when_topk_none(self):
        learner = GraphLearner(6, embedding_dim=4, rng=rng(49))
        adj = learner().data
        assert adj.shape == (6, 6)

    def test_gradients_reach_embeddings(self):
        learner = GraphLearner(5, embedding_dim=3, top_k=2, rng=rng(50))
        (learner() ** 2).sum().backward()
        assert learner.emb1.grad is not None
        assert np.abs(learner.emb1.grad).sum() > 0

    def test_warm_start_correlates_with_static_graph(self):
        adj = random_adjacency(12, 51, density=0.6)
        learner = GraphLearner(12, embedding_dim=6, initial_adjacency=adj, rng=rng(52))
        learned = learner.learned_adjacency()
        # The warm start should produce a non-degenerate graph.
        assert learned.sum() > 0

    def test_learned_adjacency_detached_copy(self):
        learner = GraphLearner(4, embedding_dim=2, rng=rng(53))
        a = learner.learned_adjacency()
        a[...] = -1
        assert (learner.learned_adjacency() >= 0).all()

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            GraphLearner(4, embedding_dim=0)
        with pytest.raises(ValueError):
            GraphLearner(4, top_k=9)
