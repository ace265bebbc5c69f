"""MTGNN — Multivariate Time Series GNN (Wu et al., KDD 2020), scaled to the
EMA paper's setting.

The distinguishing feature is the **graph-learning module**: node embeddings
are trained jointly with the forecaster, so the adjacency itself is
optimized against the training loss.  Per the EMA paper's Experiment C, the
learner can start from a static similarity graph ("starting from an initial
graph structure or a random one") and the refined graph can be exported for
other models.

Architecture (per the source paper, at the depth the EMA windows warrant):

* 1x1 start convolution into residual channels;
* ``num_layers`` blocks of gated dilated-inception temporal convolution
  (tanh filter x sigmoid gate), each followed by mix-hop graph propagation
  run in both edge directions (A and A^T) and a residual connection;
* per-block skip connections into a skip accumulator;
* output head reading the skip state at the final time position.

Activations run node-major and channels-last, ``(V, S, T, C)``: the
temporal convolutions window the ``T`` axis of ``(..., T, C)`` views,
each graph hop is one 2-D GEMM over ``x.reshape(V, -1)``, and LayerNorm
acts on the trailing channel axis, so no layer transposes its input.

**Receptive-field pruning.**  The head reads position ``L-1`` only, and
everything but the temporal convolutions acts on each time position
alone.  Layer ``l`` (dilation ``2**l``, kernels up to 3) reads its input
at ``t``, ``t - 2**l`` and ``t - 2**(l+1)``, so :func:`kept_positions`
works back from ``L-1``: the last layer produces ``L-1`` alone, every
other layer ``l`` the stride-``2**(l+1)`` grid ending at ``L-1`` as far
back as the next layer reads, and the start convolution the steps layer
0 reads.  Every layer runs on its grid alone — the inception branches
window only the kept positions (taps ``2**l // 2**l = 1`` apart on the
compacted input grid), the skip convolutions read ``L-1`` — so at the
paper shape (``L=5``, two layers) the stages compute 5, 3 and 1
positions instead of 5 each.  Kept values come from the same windows and
GEMM rows as in a full-window forward, and dropout draws its mask at the
full ``(S, C, V, L)`` shape, so outputs are bitwise equal to it wherever
the BLAS rounds a GEMM row independently of the row count (every
paper-shape training batch; a single window at V=26 may differ in the
last bit).  Gradients differ in summation order only.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, no_grad
from ..nn import (DilatedInception, Dropout, GraphLearner, LayerNorm, Linear,
                  MixHopPropagation, TemporalConv2d, TimeGrid)
from ..nn.container import ModuleList
from .base import Forecaster

__all__ = ["MTGNN", "kept_positions"]

#: Kernel widths of every dilated-inception layer.
_KERNEL_SIZES = (2, 3)
#: The one time position the skip convolutions and the head read.
_LAST = TimeGrid(keep=slice(-1, None))


def kept_positions(seq_len: int, num_layers: int) -> tuple:
    """``(stride, count)`` of the time positions each stage must produce.

    Entry 0 is the start convolution, entry ``l + 1`` layer ``l``; each
    names the ``count`` positions ``L-1, L-1-stride, ...``.  The last
    layer produces ``L-1`` alone.  Layer ``l`` taps its input ``2**l``
    apart with the widest inception kernel, so its input needs the
    stride-``2**l`` grid ending at ``L-1``, as far back as its earliest
    output's window reaches and no further than position 0.
    """
    grids = [(2 ** num_layers, 1)]
    for layer in reversed(range(num_layers)):
        stride = 2 ** layer
        count = 2 * (grids[0][1] - 1) + max(_KERNEL_SIZES)
        grids.insert(0, (stride, min(count, (seq_len - 1) // stride + 1)))
    return tuple(grids)


class MTGNN(Forecaster):
    """MTGNN forecaster with optional graph learning.

    Parameters
    ----------
    initial_adjacency:
        Static graph.  With ``use_graph_learning=True`` it warm-starts the
        learner's node embeddings; with ``False`` it is used as a fixed
        propagation graph.  ``None`` (learning mode only) starts from random
        embeddings — the paper's MTGNN-with-random-graph condition.
    top_k:
        Learned-graph sparsity (edges kept per node); defaults to V // 3,
        mirroring MTGNN's sparse learned graphs.
    """

    requires_graph = False  # can operate purely on its learned graph

    def __init__(self, num_variables: int, seq_len: int,
                 initial_adjacency: np.ndarray | None = None,
                 use_graph_learning: bool = True,
                 hidden_size: int = 32, num_layers: int = 2,
                 embedding_dim: int = 8, top_k: int | None = None,
                 mixhop_depth: int = 2, dropout: float = 0.3,
                 custom_graph_learner=None,
                 rng: np.random.Generator | None = None):
        super().__init__(num_variables, seq_len)
        rng = rng if rng is not None else np.random.default_rng()
        if not use_graph_learning and initial_adjacency is None \
                and custom_graph_learner is None:
            raise ValueError("static mode needs initial_adjacency")
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        if custom_graph_learner is not None:
            # Alternative structure-learning module (e.g. GTSGraphLearner):
            # anything exposing forward() -> Tensor and learned_adjacency().
            self.use_graph_learning = True
            self.graph_learner = custom_graph_learner
            self._static_adjacency = None
        elif use_graph_learning:
            self.use_graph_learning = True
            if top_k is None:
                top_k = max(2, num_variables // 3)
            self.graph_learner = GraphLearner(
                num_variables, embedding_dim=embedding_dim, top_k=top_k,
                initial_adjacency=initial_adjacency, rng=rng)
            self._static_adjacency = None
        else:
            self.use_graph_learning = False
            self.graph_learner = None
            self._static_adjacency = np.asarray(initial_adjacency, dtype=np.float64)  # repro: noqa[REPRO005] — graph matrices are float64 constants
        #: Static mode: memoized row-normalized (A, A^T) propagation pair,
        #: rebuilt lazily after set_adjacency().  Learned mode never uses it.
        self._static_props = None

        c = hidden_size
        self.start_conv = TemporalConv2d(1, c, 1, rng=rng)
        self.filter_convs = ModuleList()
        self.gate_convs = ModuleList()
        self.skip_convs = ModuleList()
        self.graph_convs_fwd = ModuleList()
        self.graph_convs_bwd = ModuleList()
        self.norms = ModuleList()
        for layer in range(num_layers):
            dilation = 2 ** layer
            self.filter_convs.append(DilatedInception(
                c, c, kernel_sizes=_KERNEL_SIZES, dilation=dilation, rng=rng))
            self.gate_convs.append(DilatedInception(
                c, c, kernel_sizes=_KERNEL_SIZES, dilation=dilation, rng=rng))
            self.skip_convs.append(TemporalConv2d(c, c, 1, rng=rng))
            self.graph_convs_fwd.append(
                MixHopPropagation(c, c, depth=mixhop_depth, rng=rng))
            self.graph_convs_bwd.append(
                MixHopPropagation(c, c, depth=mixhop_depth, rng=rng))
            self.norms.append(LayerNorm(c))
        self.skip_start = TemporalConv2d(1, c, 1, rng=rng)
        self.skip_end = TemporalConv2d(c, c, 1, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)
        self.head_hidden = Linear(c, c, rng=rng)
        self.head_out = Linear(c, 1, rng=rng)

        grids = kept_positions(seq_len, num_layers)
        #: Leading window steps the start convolution never needs.
        self._first_step = seq_len - grids[0][1]
        #: Per layer: its TimeGrid over the input grid (stride ``2**l``;
        #: every second position, ending at the last) and its kept
        #: positions as a slice of the logical ``L`` axis.
        self._layer_grids = []
        for layer in range(num_layers):
            count_in = grids[layer][1]
            stride, count = grids[layer + 1]
            self._layer_grids.append((
                TimeGrid(2 ** layer, slice(count_in - 1 - 2 * (count - 1),
                                           None, 2)),
                slice(seq_len - 1 - stride * (count - 1), None, stride)))

    # ------------------------------------------------------------------
    # Graph access
    # ------------------------------------------------------------------
    def current_adjacency(self) -> Tensor:
        """Adjacency used this forward pass (inside the graph when learned)."""
        if self.use_graph_learning:
            return self.graph_learner()
        return Tensor(self._static_adjacency)

    def learned_graph(self) -> np.ndarray:
        """Export the (learned or static) adjacency as numpy (Experiment C)."""
        if self.use_graph_learning:
            return self.graph_learner.learned_adjacency()
        return self._static_adjacency.copy()

    def set_adjacency(self, adjacency: np.ndarray) -> None:
        """Replace the static graph / re-warm-start the learner."""
        adjacency = np.asarray(adjacency, dtype=np.float64)  # repro: noqa[REPRO005] — spectral warm start needs full precision
        if self.use_graph_learning and not isinstance(self.graph_learner,
                                                      GraphLearner):
            raise NotImplementedError(
                "warm-starting is only defined for the adaptive GraphLearner")
        if self.use_graph_learning:
            rng = np.random.default_rng(0)
            e1, e2 = GraphLearner._spectral_warm_start(
                adjacency, self.graph_learner.embedding_dim, rng)
            with no_grad():
                self.graph_learner.emb1.copy_(e1)
                self.graph_learner.emb2.copy_(e2)
        else:
            self._static_adjacency = adjacency
            self._static_props = None

    def _static_propagations(self) -> tuple:
        """Row-normalized ``(Â, Â^T)`` operators for the constant graph.

        Computed once per graph through
        :func:`repro.nn.graphcache.cached_row_normalized` — the same
        arithmetic :meth:`MixHopPropagation._row_normalize` ran inside the
        autodiff graph on every forward pass — and reused across epochs.
        The operators are normalized in float64 and cast to the model's
        parameter dtype, so a float32 model forecasts in float32.  When
        the density autoswitch routes the graph sparse, the pair is
        returned as :class:`~repro.nn.sparse.CSRMatrix` factorizations of
        those same operators instead.
        """
        if self._static_props is None:
            from ..nn.graphcache import cached_row_normalized
            from ..nn.sparse import CSRMatrix, should_use_sparse

            dtype = self.head_out.weight.dtype
            base = self._static_adjacency
            pair = tuple(cached_row_normalized(graph).astype(dtype, copy=False)
                         for graph in (base, base.T))
            density = np.count_nonzero(pair[0]) / pair[0].size
            if should_use_sparse(pair[0].shape[0], density, dtype):
                self._static_props = tuple(CSRMatrix.from_dense(op)
                                           for op in pair)
            else:
                self._static_props = tuple(Tensor(op) for op in pair)
        return self._static_props

    # ------------------------------------------------------------------
    def _learned_propagations(self) -> tuple:
        """Row-normalized ``(Â, Â^T)`` of this forward's learned graph.

        Normalized once per forward, inside the autodiff graph so the
        gradients reach the graph learner, and shared by every layer.
        """
        adjacency = self.current_adjacency()
        return (MixHopPropagation._row_normalize(adjacency),
                MixHopPropagation._row_normalize(adjacency.T))

    def _graph_mix(self, x: Tensor, layer: int, propagations: tuple) -> Tensor:
        """Mix-hop propagation in both edge directions on node-major
        ``(V, S, L, C)`` activations."""
        prop_fwd, prop_bwd = propagations
        return (self.graph_convs_fwd[layer](x, propagation=prop_fwd)
                + self.graph_convs_bwd[layer](x, propagation=prop_bwd))

    def _dropout(self, x: Tensor, positions: slice) -> Tensor:
        """Dropout on node-major ``(V, S, T, C)`` activations holding the
        logical time ``positions``.

        The mask is drawn at the full logical ``(S, C, V, L)`` shape, in the
        order of torch's layout, and ``positions`` is gathered from it: each
        activation meets the same draw as in a full-window, torch-layout
        forward, and the RNG stream advances by the same amount."""
        logical = (x.shape[1], x.shape[3], x.shape[0], self.seq_len)
        return self.dropout(x.transpose(1, 3, 0, 2), draw_shape=logical,
                            select=(..., positions)).transpose(2, 0, 3, 1)

    def forward(self, inputs: Tensor) -> Tensor:
        self._check_input(inputs)
        samples = inputs.shape[0]
        propagations = (self._learned_propagations() if self.use_graph_learning
                        else self._static_propagations())
        # Node-major, channels-last: (S, L, V) -> (V, S, L, 1).  Every conv
        # reads contiguous time windows, every graph hop is one 2-D GEMM.
        x = inputs.transpose(2, 0, 1).reshape(
            self.num_variables, samples, self.seq_len, 1)
        skip = self.skip_start(x, _LAST)
        if self._first_step:
            x = x[:, :, self._first_step:]
        x = self.start_conv(x)
        for layer, (grid, positions) in enumerate(self._layer_grids):
            residual = x[:, :, grid.keep]
            filt = self.filter_convs[layer](x, grid).tanh()
            gate = self.gate_convs[layer](x, grid).sigmoid()
            x = self._dropout(filt * gate, positions)
            skip = skip + self.skip_convs[layer](x, _LAST)
            x = self._graph_mix(x, layer, propagations)
            x = x + residual
            # Per-layer normalization over channels (canonical MTGNN).
            x = self.norms[layer](x)
        # Final skip (canonical skipE): without it the last layer's graph
        # convolution would never reach the output head.  The last layer
        # produced position L-1 alone.
        skip = skip + self.skip_end(x)
        final = skip[:, :, -1].transpose(1, 0, 2)   # (S, V, C)
        hidden = self.head_hidden(final.relu()).relu()
        return self.head_out(hidden).reshape(samples, self.num_variables)
