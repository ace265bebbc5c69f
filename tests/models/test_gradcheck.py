"""Finite-difference gradchecks of whole convolutional forecasters.

The layer sweep (``tests/nn/test_gradcheck_sweep.py``) checks each layer
alone; these cases check the layers composed as MTGNN and ASTGCN wire them
— node-major MTGNN with its once-per-forward graph normalization, and
channels-last ASTGCN — on tiny shapes in float64, gradients with respect
to the input windows and every parameter.  Models run in eval mode so
dropout is the identity, and the learned graph keeps every edge so an
epsilon step cannot flip a top-k mask.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, set_default_dtype
from repro.autodiff.gradcheck import check_gradients
from repro.models import ASTGCN, MTGNN

V, L, S = 3, 4, 2


@pytest.fixture(autouse=True)
def _float64():
    set_default_dtype(np.float64)   # conftest restores the session dtype


def _adjacency(seed):
    rng = np.random.default_rng(seed)
    a = rng.random((V, V))
    np.fill_diagonal(a, 0.0)
    return a


def _mtgnn_learned():
    # top_k=V keeps every edge: the learner returns its unmasked graph.
    return MTGNN(V, L, initial_adjacency=_adjacency(1), top_k=V,
                 hidden_size=4, num_layers=2, embedding_dim=3,
                 rng=np.random.default_rng(2))


def _mtgnn_static():
    return MTGNN(V, L, initial_adjacency=_adjacency(3),
                 use_graph_learning=False, hidden_size=4, num_layers=2,
                 rng=np.random.default_rng(4))


def _astgcn():
    return ASTGCN(V, L, _adjacency(5), hidden_size=4,
                  rng=np.random.default_rng(6))


@pytest.mark.parametrize("build", [_mtgnn_learned, _mtgnn_static, _astgcn],
                         ids=["mtgnn-learned", "mtgnn-static", "astgcn"])
def test_model_gradients(build):
    model = build()
    model.eval()
    inputs = Tensor(np.random.default_rng(7).standard_normal((S, L, V)),
                    requires_grad=True)
    params = list(model.parameters())

    def loss(*tensors):
        return (model(tensors[0]) ** 2).sum()

    check_gradients(loss, [inputs, *params], atol=1e-6, rtol=1e-5)
