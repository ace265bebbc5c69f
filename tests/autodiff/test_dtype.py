"""Tests for the global default-dtype mechanism (float32 fast path)."""

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import Tensor, mse


@pytest.fixture
def float32_mode():
    ad.set_default_dtype(np.float32)
    yield
    ad.set_default_dtype(np.float64)


class TestDefaultDtype:
    def test_default_is_float64(self):
        assert ad.get_default_dtype() == np.float64

    def test_rejects_non_float(self):
        with pytest.raises(ValueError):
            ad.set_default_dtype(np.int32)

    def test_int_promotion_follows_default(self, float32_mode):
        assert Tensor([1, 2, 3]).dtype == np.float32

    def test_parameters_follow_default(self, float32_mode):
        from repro.nn import Linear

        layer = Linear(4, 2, rng=np.random.default_rng(0))
        assert layer.weight.dtype == np.float32
        assert layer.bias.dtype == np.float32

    def test_no_upcast_through_model(self, float32_mode):
        from repro.models import create_model

        rng = np.random.default_rng(0)
        adj = rng.random((5, 5))
        adj = (adj + adj.T) / 2
        np.fill_diagonal(adj, 0.0)
        for name in ("lstm", "a3tgcn", "astgcn", "mtgnn"):
            model = create_model(name, 5, 2, adjacency=adj, seed=0)
            x = Tensor(rng.standard_normal((4, 2, 5)).astype(np.float32))
            out = model(x)
            assert out.dtype == np.float32, name

    def test_scalar_arithmetic_preserves_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        for result in (x + 1, 1 + x, x - 1, 1 - x, x * 2, 2 * x, x / 2):
            assert result.dtype == np.float32

    def test_float32_training_converges(self, float32_mode):
        from repro.nn import Linear
        from repro.optim import Adam

        rng = np.random.default_rng(1)
        x = rng.standard_normal((32, 3)).astype(np.float32)
        y = (x @ np.array([[1.0], [-2.0], [0.5]])).astype(np.float32)
        model = Linear(3, 1, rng=rng)
        opt = Adam(model.parameters(), lr=0.05)
        for _ in range(200):
            opt.zero_grad()
            loss = mse(model(Tensor(x)), y)
            loss.backward()
            opt.step()
        assert loss.item() < 1e-3

    def test_gradients_match_dtype(self, float32_mode):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        (x * x).sum().backward()
        assert x.grad.dtype == np.float32


class TestDefaultDtypeContext:
    def test_sets_the_dtype_for_the_block_only(self):
        from repro.nn import Linear

        with ad.default_dtype("float32"):
            assert ad.get_default_dtype() == np.float32
            assert Linear(3, 2).weight.dtype == np.float32
        assert ad.get_default_dtype() == np.float64

    def test_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with ad.default_dtype(np.float32):
                raise RuntimeError("boom")
        assert ad.get_default_dtype() == np.float64

    def test_rejects_non_float_without_changing_the_default(self):
        with pytest.raises(ValueError):
            with ad.default_dtype(np.int32):
                pass  # pragma: no cover - never entered
        assert ad.get_default_dtype() == np.float64
