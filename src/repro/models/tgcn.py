"""T-GCN cell: the graph-convolutional GRU underlying A3TGCN.

Following Bai et al. (A3T-GCN) and the original T-GCN: at each step the
input signal passes through graph convolutions and, together with the
previous per-node hidden state, forms GRU gates, so information mixes
along the variable graph while the recurrence tracks time.

The graph convolutions read only the input signal, so they, and the
input halves of the gate affines, run once per distinct time row rather
than once per (window, step): :func:`time_rows` lays a window batch out
as rows, :meth:`TGCNCell.input_stage` maps every row at once, and
:meth:`TGCNCell.step` adds the hidden-state halves step by step.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, concat, no_grad
from ..nn import GCNConv
from ..nn.module import Module
from .base import Forecaster

__all__ = ["TGCNCell", "TGCNForecaster", "time_rows", "windows_slide"]


def windows_slide(windows: np.ndarray) -> bool:
    """Whether every ``(S, L, V)`` batch in ``windows`` slides by one step.

    ``windows`` is ``(..., S, L, V)``.  A batch slides when each window
    equals its predecessor shifted by one step, compared bit for bit (so
    ``-0.0`` differs from ``0.0`` and a NaN equals only its own bit
    pattern).  Returns ``True`` when every batch slides and ``False``
    when none does; batches that disagree raise ``ValueError``, because
    one row layout serves them all.  One-window and one-step batches
    slide trivially.

    Anything but a concrete ndarray (a symbolic batch in the static
    analyzer) has no values to compare and takes the step-major layout;
    both layouts are built by the same ops, so the analysis is the same.
    """
    if not isinstance(windows, np.ndarray):
        return False
    bits = windows.view(f"u{windows.dtype.itemsize}")
    slides = (bits[..., 1:, :-1, :] == bits[..., :-1, 1:, :]).all(
        axis=(-3, -2, -1))
    if slides.all():
        return True
    if slides.any():
        raise ValueError(
            f"{int(slides.sum())} of {slides.size} window batches slide "
            "and the rest do not; they need different time-row layouts")
    return False


def time_rows(windows: Tensor) -> tuple[Tensor, int]:
    """The input rows a T-GCN reads from a ``(..., S, L, V)`` window batch.

    Returns ``(rows, stride)`` with rows ``(..., N, V, 1)``: step ``t`` of
    the ``S`` windows is ``rows[..., t * stride : t * stride + S, :, :]``.

    * Sliding batches (:func:`windows_slide`) hold only ``S + L - 1``
      distinct time points: the rows are those points in time order and
      the stride is 1.  Bitwise-equal rows give bitwise-equal outputs, so
      sharing them changes no value.
    * Otherwise the rows are all ``L * S`` window steps, step-major, and
      the stride is ``S``.  For ``S = 1`` the two layouts coincide.

    A window batch that requires grad always takes the step-major layout:
    each window element then gets its own gradient, where a shared row
    would hand a time point's whole gradient to one of its copies.
    Both layouts are built by the same ops, which differ only in one
    slice bound.
    """
    *lead, samples, _, nodes = windows.shape
    shared = not windows.requires_grad and windows_slide(windows.data)
    first = samples - 1 if shared else 0
    # Step 0 of every window, then steps 1.. of windows first.. step-major.
    head = windows[..., 0, :]
    tail = windows[..., first:, 1:, :].swapaxes(-3, -2).reshape(
        *lead, -1, nodes)
    rows = concat([head, tail], axis=-2)
    return rows.reshape(*rows.shape, 1), 1 if shared else samples


class TGCNCell(Module):
    """Graph-convolutional GRU cell over per-node states.

    Faithful to the published T-GCN operator: the graph-convolution stage is
    the *two-layer* GCN ``GC(X) = Â ReLU(Â X W0) W1`` applied to the input
    signal, whose output then drives plain GRU gates together with the
    hidden state.  Two rounds of neighbourhood mixing per step dilute each
    node's own (scalar) signal — the architectural property behind A3TGCN's
    LSTM-level EMA performance in the paper.

    The ``gates`` and ``candidate`` affines act on ``[GC(x), h]``; their
    weights are split by columns into an input half ``W[:, :H]``, applied
    by :meth:`input_stage` together with the bias, and a hidden half
    ``W[:, H:]``, applied by :meth:`step`.  Calling the cell on a
    ``(S, L, V)`` window batch unrolls it and returns the ``L`` hidden
    states ``(S, V, H)``.
    """

    def __init__(self, hidden_size: int, adjacency: np.ndarray,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        from ..nn import Linear

        self.hidden_size = hidden_size
        self.graph_conv1 = GCNConv(1, hidden_size, adjacency, rng=rng)
        self.graph_conv2 = GCNConv(hidden_size, hidden_size, adjacency, rng=rng)
        self.gates = Linear(2 * hidden_size, 2 * hidden_size, rng=rng)
        self.candidate = Linear(2 * hidden_size, hidden_size, rng=rng)
        # Bias the update gate toward remembering, as T-GCN initializes b=1.
        with no_grad():
            self.gates.bias.data[:hidden_size] = 1.0

    def set_adjacency(self, adjacency: np.ndarray) -> None:
        self.graph_conv1.set_adjacency(adjacency)
        self.graph_conv2.set_adjacency(adjacency)

    def input_stage(self, rows: Tensor) -> tuple[Tensor, Tensor]:
        """Input halves ``(u_gates, u_cand)`` for rows ``(..., V, 1)``.

        ``u = GC(x) @ W[:, :H].T + b`` for the gates and the candidate:
        everything in a step that does not read the hidden state.
        """
        gc = self.graph_conv2(self.graph_conv1(rows).relu())
        h = self.hidden_size
        return (gc @ self.gates.weight[:, :h].T + self.gates.bias,
                gc @ self.candidate.weight[:, :h].T + self.candidate.bias)

    def step(self, u_gates: Tensor, u_cand: Tensor, hidden: Tensor) -> Tensor:
        """One GRU step from the input halves of this step and ``hidden``."""
        h = self.hidden_size
        gates = (u_gates + hidden @ self.gates.weight[:, h:].T).sigmoid()
        update = gates[..., :h]
        reset = gates[..., h:]
        candidate = (u_cand + (reset * hidden)
                     @ self.candidate.weight[:, h:].T).tanh()
        return update * hidden + (1.0 - update) * candidate

    def forward(self, windows: Tensor) -> list[Tensor]:
        """Unroll over a ``(S, L, V)`` window batch; one state per step."""
        samples, seq_len, nodes = windows.shape
        rows, stride = time_rows(windows)
        u_gates, u_cand = self.input_stage(rows)
        hidden = self.initial_state(samples, nodes)
        states = []
        for t in range(seq_len):
            span = slice(t * stride, t * stride + samples)
            hidden = self.step(u_gates[span], u_cand[span], hidden)
            states.append(hidden)
        return states

    def initial_state(self, samples: int, nodes: int) -> Tensor:
        return Tensor(np.zeros((samples, nodes, self.hidden_size),
                               dtype=self.gates.weight.dtype))


class TGCNForecaster(Forecaster):
    """``(S, L, V) -> T-GCN over L -> last hidden state -> (S, V)``.

    The plain T-GCN of Zhao et al.: the recurrence's *final* per-node
    hidden state is the context (no temporal attention — that addition is
    exactly what turns this model into A3TGCN).  Kept in the registry as
    the ablation point between LSTM and A3TGCN: graph mixing without
    attention.
    """

    requires_graph = True

    def __init__(self, num_variables: int, seq_len: int, adjacency: np.ndarray,
                 hidden_size: int = 32, dropout: float = 0.3,
                 rng: np.random.Generator | None = None):
        super().__init__(num_variables, seq_len)
        rng = rng if rng is not None else np.random.default_rng()
        from ..nn import Dropout, Linear

        self.hidden_size = hidden_size
        self.cell = TGCNCell(hidden_size, adjacency, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)
        self.head = Linear(hidden_size, 1, rng=rng)

    def set_adjacency(self, adjacency: np.ndarray) -> None:
        self.cell.set_adjacency(adjacency)

    def forward(self, inputs: Tensor) -> Tensor:
        self._check_input(inputs)
        hidden = self.cell(inputs)[-1]
        out = self.head(self.dropout(hidden))
        return out.reshape(inputs.shape[0], self.num_variables)
