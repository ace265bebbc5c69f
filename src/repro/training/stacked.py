"""Cross-individual stacked cohort execution (``backend="stacked"``).

The cohort grid is thousands of *tiny* independent fits — full-batch
training of ~20k-parameter models on a few hundred windows each.  At that
size the per-individual loop is dominated by Python/graph overhead, not
GEMM time: every individual pays its own autodiff graph walk, optimizer
step and epoch loop.  This module trains ``K`` individuals *in one model*
instead: every parameter gets a leading lane axis ``(K, *shape)``, the
per-individual adjacencies ride along as one ``(K, V, V)`` constant stack,
and one forward/backward/step drives all lanes at once.

Lane exactness, not just equivalence
------------------------------------
Stacking is only usable if it is a pure scheduling choice, like the
process pool: the paper's tables must not depend on the backend.  The
executor therefore mirrors the solo path *operation by operation*:

* the linear-algebra ops come from :mod:`repro.nn.stacked_ops`, which run
  one solo-shaped GEMM per lane (same flatten, same association order)
  and re-create the solo graph's per-use transpose nodes so gradient
  *accumulation order* — bitwise visible for parameters used three or
  more times per epoch — matches the solo graph;
* elementwise ops, reductions and losses are lane-rows of the exact solo
  expressions (a C-contiguous row reduction is bitwise the solo full
  reduction);
* :class:`~repro.optim.adam.StackedAdam` runs solo Adam's flat-buffer
  update over all lane rows, with a lane mask to freeze early-stopped
  lanes;
* per-lane early-stopping / divergence-guard handlers replay the solo
  callbacks' decision logic (same thresholds, same snapshot/restore
  points), so a lane stops at exactly the epoch its solo fit would.

The bit-identity is asserted end-to-end in ``tests/training`` /
``test_stacked.py``; the documented escape hatch (DESIGN.md) is a small
float tolerance should a platform's multi-axis reduction order differ.

Eligibility and fallback
------------------------
Not every cell can stack: :func:`stackable_reason` names the blocker
(model without a stacked forward, non-Adam optimizer, exotic callbacks,
learned-graph export, ...).  :func:`run_stacked` trains the eligible
cells in stacks grouped by (model, seq_len, dtype, data shape, config)
and returns the rest — plus any stack that failed or diverged — as
*leftover* indices for the ordinary per-individual path, which keeps its
full retry/reseed/checkpoint semantics.  Divergent lanes are never
finished from the stack: the solo path re-runs them from scratch so their
failure handling is identical to the process backend.
"""

from __future__ import annotations

import contextlib
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..analysis.hazards import (LANE_CALLBACKS as _LANE_CALLBACKS,
                                STACKED_LOSSES as _STACKED_LOSSES,
                                STACKED_MODELS,
                                STACKED_OPTIMIZER_KWARGS
                                as _STACKED_OPTIMIZER_KWARGS,
                                STACKED_OPTIMIZERS as _STACKED_OPTIMIZERS,
                                reason as _reason)
from ..autodiff import (Tensor, concat, get_default_dtype, no_grad,
                        set_default_dtype, softmax, stack, where)
from ..data.splits import split_windows
from ..models import create_model
from ..nn import gcn_conv_stacked, lane_affine
from ..nn.graphcache import cached_stacked_adjacency
from ..nn.module import Parameter
from ..optim import StackedAdam
from .faults import is_divergent
from .history import TrainingHistory
from .personalized import (IndividualResult, aggregate_repeats,
                           resolve_trainer_config)
from .trainer import Trainer, TrainerConfig

if TYPE_CHECKING:
    from .parallel import CohortCell, ParallelConfig

__all__ = ["stackable_reason", "run_stacked", "STACKED_MODELS"]

# The eligibility tables (STACKED_MODELS, lane-wise losses/callbacks,
# stacked-Adam kwargs) live in :mod:`repro.analysis.hazards` so the static
# fast-path analyzer and this runtime check read the same data.


def stackable_reason(cell: "CohortCell") -> str | None:
    """Why ``cell`` cannot join a stack, or ``None`` if it can.

    The returned string is a human-readable blocker used in diagnostics;
    callers treat ``None`` as "eligible".  Every blocker is a
    :mod:`repro.analysis.hazards` catalogue entry (REPRO012), so the
    static analyzer reports the same strings this function returns.
    """
    if cell.model_name not in STACKED_MODELS:
        return _reason("stack-no-forward", model=cell.model_name)
    if cell.export_learned_graph:
        return _reason("stack-learned-graph")
    resolved = resolve_trainer_config(cell.model_name, cell.trainer_config)
    if resolved.optimizer not in _STACKED_OPTIMIZERS:
        return _reason("stack-optimizer", optimizer=resolved.optimizer)
    extra = sorted(set(dict(resolved.optimizer_kwargs))
                   - set(_STACKED_OPTIMIZER_KWARGS))
    if extra:
        return _reason("stack-optimizer-kwargs", extra=extra)
    if resolved.loss not in _STACKED_LOSSES:
        return _reason("stack-loss", loss=resolved.loss)
    unsupported = sorted({spec.name for spec in resolved.callbacks}
                         - set(_LANE_CALLBACKS))
    if unsupported:
        return _reason("stack-callbacks", unsupported=unsupported)
    mode = getattr(cell, "sparse", "auto")
    if cell.model_name != "lstm" and mode != "never":
        # The stacked lane ops are dense-only; a cell whose graph would
        # route through the CSR path in solo execution must stay solo, or
        # the solo == stacked bitwise contract would compare a sparse
        # forward against a dense one.
        from ..nn.sparse import should_use_sparse

        # Static probes (analysis.fastpath) carry no graphs: routing is
        # then a per-cell runtime property, not a model-level blocker.
        for graph in getattr(cell, "graphs", ()):
            if graph is None:
                continue
            graph = np.asarray(graph)
            v = graph.shape[0]
            # Zero pattern of the normalized GCN propagation operator:
            # the graph's nonzeros plus the self-loop diagonal.
            nnz = np.count_nonzero((graph != 0) | np.eye(v, dtype=bool))
            if should_use_sparse(v, nnz / (v * v), cell.dtype, mode):
                return _reason("stack-sparse", mode=mode)
    return None


def _group_key(cell: "CohortCell") -> tuple:
    """Cells sharing this key train under one parameter stack.

    Everything that shapes the computation must match: architecture and
    window geometry (so lane shapes agree), dtype, and the resolved
    trainer/model configs (so one optimizer and one callback recipe drive
    the whole stack).
    """
    resolved = resolve_trainer_config(cell.model_name, cell.trainer_config)
    # repr() rather than the dataclasses themselves: the solo path never
    # hashes configs (cell keys digest their repr), so e.g. a CallbackSpec
    # built with dict params must not break grouping here either.
    return (cell.model_name, cell.seq_len, cell.dtype,
            cell.individual.num_variables, cell.individual.num_time_points,
            float(cell.train_fraction), repr(resolved), repr(cell.model_config))


@dataclass
class _Lane:
    """One training lane: a single repeat of a single cell."""

    index: int
    cell: "CohortCell"
    graph: np.ndarray | None
    seed: int


@dataclass
class _LaneState:
    """Per-lane mirror of :class:`~repro.training.callbacks.TrainingContext`.

    Only the fields the lane handlers consult; ``request_stop`` keeps the
    solo first-reason-wins semantics.
    """

    lane: int
    epoch: int = 0
    stop_requested: bool = False
    stop_reason: str | None = None

    def request_stop(self, reason: str) -> None:
        self.stop_requested = True
        if self.stop_reason is None:
            self.stop_reason = reason


class _LaneEarlyStopping:
    """Lane replay of :class:`~repro.training.callbacks.EarlyStopping`.

    Same improvement test, staleness counter, stop message and
    restore-at-fit-end condition; snapshots/restores touch only this
    lane's parameter rows.
    """

    def __init__(self, snapshot: Callable, restore: Callable,
                 patience: int = 20, min_delta: float = 0.0,
                 restore_best: bool = True):
        self._snapshot = snapshot
        self._restore = restore
        self.patience = patience
        self.min_delta = min_delta
        self.restore_best = restore_best
        self.best_loss = float("inf")
        self.best_epoch = -1
        self._best_state: dict | None = None
        self._stale = 0

    def on_epoch_end(self, state: _LaneState, loss: float) -> None:
        if loss < self.best_loss - self.min_delta:
            self.best_loss = loss
            self.best_epoch = state.epoch
            self._stale = 0
            if self.restore_best:
                self._best_state = self._snapshot(state.lane)
            return
        self._stale += 1
        if self._stale >= self.patience:
            state.request_stop(
                f"early stop: no improvement for {self.patience} epochs "
                f"(best {self.best_loss:.6g} at epoch {self.best_epoch})")

    def on_fit_end(self, state: _LaneState) -> None:
        if self.restore_best and self._best_state is not None \
                and state.epoch != self.best_epoch:
            self._restore(state.lane, self._best_state)


class _LaneDivergenceGuard:
    """Lane replay of :class:`~repro.training.callbacks.DivergenceGuard`."""

    def __init__(self, snapshot: Callable, restore: Callable):
        self._snapshot = snapshot
        self._restore = restore
        self.best_loss = float("inf")
        self._best_state: dict | None = None
        self.tripped = False

    def on_epoch_end(self, state: _LaneState, loss: float) -> None:
        if np.isfinite(loss):
            if loss < self.best_loss:
                self.best_loss = loss
                self._best_state = self._snapshot(state.lane)
            return
        self.tripped = True
        if self._best_state is not None:
            self._restore(state.lane, self._best_state)
        state.request_stop(
            f"divergence: non-finite loss at epoch {state.epoch}"
            + ("" if self._best_state is None
               else f"; restored weights of loss {self.best_loss:.6g}"))

    def on_fit_end(self, state: _LaneState) -> None: ...


_LANE_HANDLERS = {
    "early-stopping": _LaneEarlyStopping,
    "divergence-guard": _LaneDivergenceGuard,
}


def _lane_losses(prediction: Tensor, targets: np.ndarray,
                 loss_name: str) -> Tensor:
    """Per-lane training losses ``(K,)`` of a ``(K, S, V)`` prediction.

    Each lane's value replays the solo loss expression exactly: the same
    elementwise ops, then a per-row sum (bitwise the solo full reduction
    over that lane's C-contiguous block) scaled by the same reciprocal
    count, so ``lane_losses[k].item()`` equals the solo ``loss.item()``.
    """
    lanes = prediction.shape[0]
    count = int(np.prod(prediction.shape[1:]))
    if loss_name == "mse":
        diff = prediction - Tensor(
            targets.astype(prediction.dtype, copy=False))
        per_element = diff * diff
    elif loss_name == "mae":
        per_element = (prediction - Tensor(targets)).abs()
    elif loss_name == "huber":
        delta = 1.0
        diff = prediction - Tensor(targets)
        abs_diff = diff.abs()
        quadratic = diff * diff * 0.5
        linear = abs_diff * delta - 0.5 * delta * delta
        # The stacked backend trains eagerly; lane losses are never
        # trace-captured.
        per_element = where(abs_diff.data <= delta,  # repro: noqa[REPRO007]
                            quadratic, linear)
    else:  # pragma: no cover - guarded by stackable_reason
        raise ValueError(f"loss {loss_name!r} has no lane-wise form")
    return per_element.reshape(lanes, -1).sum(axis=1) * (1.0 / count)


def _clip_lane_grads(parameters: list, active: np.ndarray,
                     max_norm: float) -> np.ndarray:
    """Per-lane global grad-norm clip; returns the pre-clip norms ``(K,)``.

    Mirrors :func:`repro.optim.clip.clip_grad_norm` lane by lane: the
    squared norm accumulates per parameter in float64 (the solo ``sum``
    of Python floats), and the scale factor is cast to the gradient dtype
    before the multiply, matching how NEP-50 casts the solo Python-float
    scale.  Frozen lanes are never scaled.

    The per-lane reduction deliberately sums over the strided lane slice
    (``(grad[k] ** 2).sum()``) rather than a flattening ``reshape``: solo
    leaf
    gradients keep the memory layout of the transpose views they came
    from, and numpy's pairwise summation follows that layout.  A reshape
    of a non-contiguous slice would force a C-order copy and reduce in a
    different pairwise order, producing a norm a few ULPs away from the
    solo value — enough to flip the clip scale bitwise.
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    lanes = active.shape[0]
    totals = np.zeros(lanes, dtype=np.float64)
    for grad in grads:
        for k in range(lanes):
            totals[k] += float((grad[k] ** 2).sum())
    norms = np.sqrt(totals)
    needs = active & (norms > max_norm) & (norms > 0)
    if needs.any():
        scale = max_norm / norms[needs]
        for grad in grads:
            rows = grad[needs]
            rows *= scale.astype(grad.dtype).reshape(
                (rows.shape[0],) + (1,) * (grad.ndim - 1))
            grad[needs] = rows
    return norms


def _forward_a3tgcn(params: "OrderedDict[str, Parameter]",
                    propagation: np.ndarray, inputs: np.ndarray,
                    hidden_size: int, seq_len: int,
                    dropout_masks: Tensor | None) -> Tensor:
    """Stacked A3TGCN forward: ``(K, S, L, V) -> (K, S, V)``.

    Lane ``k`` replays :meth:`repro.models.a3tgcn.A3TGCN.forward` (and the
    T-GCN cell inside it) node for node; the graph-convolution stages use
    the ``(K, V, V)`` propagation stack.
    """
    lanes, samples, _, nodes = inputs.shape
    w1 = params["cell.graph_conv1.linear.weight"]
    b1 = params["cell.graph_conv1.linear.bias"]
    w2 = params["cell.graph_conv2.linear.weight"]
    b2 = params["cell.graph_conv2.linear.bias"]
    gates_w = params["cell.gates.weight"]
    gates_b = params["cell.gates.bias"]
    cand_w = params["cell.candidate.weight"]
    cand_b = params["cell.candidate.bias"]
    hidden = Tensor(np.zeros((lanes, samples, nodes, hidden_size),
                             dtype=inputs.dtype))
    states = []
    for t in range(seq_len):
        step = Tensor(inputs[:, :, t, :].reshape(lanes, samples, nodes, 1))
        gc = gcn_conv_stacked(
            propagation,
            gcn_conv_stacked(propagation, step, w1, b1).relu(), w2, b2)
        combined = concat([gc, hidden], axis=-1)
        gates = lane_affine(combined, gates_w, gates_b).sigmoid()
        update = gates[..., :hidden_size]
        reset = gates[..., hidden_size:]
        candidate = lane_affine(concat([gc, reset * hidden], axis=-1),
                                cand_w, cand_b).tanh()
        hidden = update * hidden + (1.0 - update) * candidate
        states.append(hidden)
    if len(states) == 1:
        context = states[0]
    else:
        sequence = stack(states, axis=2)
        weights = softmax(params["attention"], axis=1).reshape(
            lanes, 1, seq_len, 1, 1)
        context = (sequence * weights).sum(axis=2)
    if dropout_masks is not None:
        context = context * dropout_masks
    out = lane_affine(context, params["head.weight"], params["head.bias"])
    return out.reshape(lanes, samples, nodes)


def _forward_tgcn(params: "OrderedDict[str, Parameter]",
                  propagation: np.ndarray, inputs: np.ndarray,
                  hidden_size: int, seq_len: int,
                  dropout_masks: Tensor | None) -> Tensor:
    """Stacked T-GCN forward: ``(K, S, L, V) -> (K, S, V)``.

    Lane ``k`` replays :meth:`repro.models.tgcn.TGCNForecaster.forward` —
    the A3TGCN recurrence without the temporal attention: the final
    hidden state is the context.
    """
    lanes, samples, _, nodes = inputs.shape
    w1 = params["cell.graph_conv1.linear.weight"]
    b1 = params["cell.graph_conv1.linear.bias"]
    w2 = params["cell.graph_conv2.linear.weight"]
    b2 = params["cell.graph_conv2.linear.bias"]
    gates_w = params["cell.gates.weight"]
    gates_b = params["cell.gates.bias"]
    cand_w = params["cell.candidate.weight"]
    cand_b = params["cell.candidate.bias"]
    hidden = Tensor(np.zeros((lanes, samples, nodes, hidden_size),
                             dtype=inputs.dtype))
    for t in range(seq_len):
        step = Tensor(inputs[:, :, t, :].reshape(lanes, samples, nodes, 1))
        gc = gcn_conv_stacked(
            propagation,
            gcn_conv_stacked(propagation, step, w1, b1).relu(), w2, b2)
        combined = concat([gc, hidden], axis=-1)
        gates = lane_affine(combined, gates_w, gates_b).sigmoid()
        update = gates[..., :hidden_size]
        reset = gates[..., hidden_size:]
        candidate = lane_affine(concat([gc, reset * hidden], axis=-1),
                                cand_w, cand_b).tanh()
        hidden = update * hidden + (1.0 - update) * candidate
    context = hidden
    if dropout_masks is not None:
        context = context * dropout_masks
    out = lane_affine(context, params["head.weight"], params["head.bias"])
    return out.reshape(lanes, samples, nodes)


def _forward_lstm(params: "OrderedDict[str, Parameter]", inputs: np.ndarray,
                  hidden_size: int, seq_len: int, num_layers: int,
                  dropout_masks: Tensor | None) -> Tensor:
    """Stacked LSTM forward: ``(K, S, L, V) -> (K, S, V)``.

    Lane ``k`` replays :class:`repro.models.lstm.LSTMForecaster` — the
    per-step :class:`~repro.nn.recurrent.LSTMCell` gate math and the final
    hidden-state head.  The solo model's stacked-outputs return value is
    unused by the forecaster, so it is not materialized here.
    """
    lanes, samples = inputs.shape[0], inputs.shape[1]
    layer_input = [Tensor(inputs[:, :, t, :]) for t in range(seq_len)]
    hidden: Tensor | None = None
    for layer in range(num_layers):
        gates_w = params[f"lstm.cells.{layer}.gates.weight"]
        gates_b = params[f"lstm.cells.{layer}.gates.bias"]
        zeros = np.zeros((lanes, samples, hidden_size), dtype=inputs.dtype)
        h = Tensor(zeros.copy())
        c = Tensor(zeros.copy())
        outputs = []
        for step_x in layer_input:
            z = lane_affine(concat([step_x, h], axis=-1), gates_w, gates_b)
            hs = hidden_size
            i = z[..., 0 * hs:1 * hs].sigmoid()
            f = z[..., 1 * hs:2 * hs].sigmoid()
            g = z[..., 2 * hs:3 * hs].tanh()
            o = z[..., 3 * hs:4 * hs].sigmoid()
            c = f * c + i * g
            h = o * c.tanh()
            outputs.append(h)
        layer_input = outputs
        hidden = h
    if dropout_masks is not None:
        hidden = hidden * dropout_masks
    return lane_affine(hidden, params["head.weight"], params["head.bias"])


def _execute_stack(lanes: list[_Lane],
                   resolved: TrainerConfig) -> list[tuple]:
    """Train one stack of lanes; returns ``(result, needs_solo_rerun)``.

    ``needs_solo_rerun`` is ``True`` for a lane frozen on a non-finite
    loss with no callbacks configured: the solo path would have kept
    NaN-training to the epoch budget and its (discarded, divergent)
    result feeds the scheduler's retry/reseed machinery — so such lanes
    are handed back for a from-scratch per-individual run instead of
    finishing from a state the solo path never produces.
    """
    cell0 = lanes[0].cell
    set_default_dtype(cell0.dtype)
    dtype = get_default_dtype()
    seq_len = cell0.seq_len
    nodes = cell0.individual.num_variables
    model_name = cell0.model_name
    num_lanes = len(lanes)

    splits = [split_windows(lane.cell.individual.values, seq_len,
                            lane.cell.train_fraction) for lane in lanes]
    samples = splits[0].train.inputs.shape[0]
    if any(split.train.inputs.shape[0] != samples for split in splits):
        raise ValueError("stacked lanes disagree on window counts")

    # Solo models are retained: they provide the per-lane initial
    # parameters, the per-lane dropout RNG streams, and the evaluation
    # vehicle once the trained rows are scattered back.
    models = [create_model(model_name, nodes, seq_len, adjacency=lane.graph,
                           config=lane.cell.model_config, seed=lane.seed)
              for lane in lanes]
    per_model = [dict(model.named_parameters()) for model in models]
    names = [name for name, _ in models[0].named_parameters()]
    params: "OrderedDict[str, Parameter]" = OrderedDict(
        (name, Parameter(np.stack([pm[name].data for pm in per_model])))
        for name in names)
    param_list = list(params.values())

    propagation = None
    if model_name in ("a3tgcn", "tgcn"):
        propagation = cached_stacked_adjacency(
            [lane.graph for lane in lanes])

    hidden_size = models[0].hidden_size
    dropout_p = models[0].dropout.p
    if model_name in ("a3tgcn", "tgcn"):
        mask_shape = (samples, nodes, hidden_size)
    else:
        mask_shape = (samples, hidden_size)

    def draw_dropout_masks() -> np.ndarray | None:
        if dropout_p == 0.0:
            return None
        keep = 1.0 - dropout_p
        # Lane k consumes exactly the random stream its solo fit would:
        # one solo-shaped draw per epoch from the model's own generator.
        return np.stack([
            ((model.dropout.rng.random(mask_shape) < keep) / keep)
            .astype(dtype) for model in models])

    inputs = np.stack([s.train.inputs.astype(dtype) for s in splits])
    targets = np.stack([s.train.targets.astype(dtype) for s in splits])

    def forward() -> Tensor:
        drawn = draw_dropout_masks()
        masks = None
        if drawn is not None:
            masks = Tensor(drawn)
            # Replay refills this buffer from the provider each epoch, so
            # each lane's solo RNG stream advances exactly as in eager mode.
            masks._trace_src = ("volatile", draw_dropout_masks)
        if model_name == "a3tgcn":
            return _forward_a3tgcn(params, propagation, inputs, hidden_size,
                                   seq_len, masks)
        if model_name == "tgcn":
            return _forward_tgcn(params, propagation, inputs, hidden_size,
                                 seq_len, masks)
        return _forward_lstm(params, inputs, hidden_size, seq_len,
                             models[0].lstm.num_layers, masks)

    def snapshot(lane: int) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((name, param.data[lane].copy())
                           for name, param in params.items())

    def restore(lane: int, saved: dict) -> None:
        with no_grad():
            for name, param in params.items():
                data = param.data
                data[lane] = saved[name]
                param.data = data  # reassign to bump the version counter

    optimizer = StackedAdam(
        params.values(), lr=resolved.learning_rate,
        weight_decay=0.0 if resolved.weight_decay is None
        else resolved.weight_decay, **dict(resolved.optimizer_kwargs))

    lane_handlers = [
        [_LANE_HANDLERS[spec.name](snapshot, restore, **spec.kwargs)
         for spec in resolved.callbacks]
        for _ in lanes]
    states = [_LaneState(lane=k) for k in range(num_lanes)]
    histories = [TrainingHistory() for _ in lanes]
    active = np.ones(num_lanes, dtype=bool)
    needs_solo = [False] * num_lanes
    loss_name = resolved.loss
    grad_clip = resolved.grad_clip
    learning_rate = resolved.learning_rate

    jit = None
    clip_holder: dict = {}
    if resolved.jit:
        from ..autodiff.trace import EpochJIT

        def _tail_clip() -> None:
            clip_holder["norms"] = (
                _clip_lane_grads(param_list, active, grad_clip)
                if grad_clip is not None else None)

        jit = EpochJIT(tail=[_tail_clip,
                             lambda: optimizer.step(active=active)])
    # ``where`` only replays a lane mask whose storage it saw during
    # capture, so the condition must be ONE array refreshed in place each
    # epoch — a fresh ``active.copy()`` per epoch would kill the trace.
    cond = active.copy()

    for epoch in range(resolved.epochs):
        np.copyto(cond, active)
        if jit is not None and jit.replay():
            lane_vals = jit.value("lane_loss")
            loss_values = [float(lane_vals[k]) for k in range(num_lanes)]
            norms = clip_holder["norms"]
        else:
            optimizer.zero_grad()
            capture = jit.capture() if jit is not None \
                else contextlib.nullcontext()
            with capture:
                lane_loss = _lane_losses(forward(), targets, loss_name)
                masked = where(cond, lane_loss,
                               Tensor(np.zeros(num_lanes,
                                               dtype=lane_loss.data.dtype)))
                total = masked.sum()
                total.backward()
            if jit is not None:
                jit.seal(total, watch={"lane_loss": lane_loss})
            loss_values = [float(lane_loss.data[k])
                           for k in range(num_lanes)]
            norms = None
            if grad_clip is not None:
                norms = _clip_lane_grads(param_list, active, grad_clip)
            optimizer.step(active=active)
        newly_stopped = []
        for k in range(num_lanes):
            if not active[k]:
                continue
            histories[k].record(
                loss_values[k],
                grad_norm=None if norms is None else float(norms[k]),
                lr=learning_rate)
            state = states[k]
            state.epoch = epoch
            for handler in lane_handlers[k]:
                handler.on_epoch_end(state, loss_values[k])
            if not state.stop_requested and not lane_handlers[k] \
                    and not np.isfinite(loss_values[k]):
                # No callbacks: the solo fit would NaN-train to the epoch
                # budget and its divergent result would be discarded by
                # the scheduler anyway.  Freeze the lane (NaN rows are
                # masked out of the optimizer, so siblings are untouched)
                # and hand it back for the canonical solo re-run.
                needs_solo[k] = True
                state.stop_requested = True
            if state.stop_requested:
                newly_stopped.append(k)
        for k in newly_stopped:
            active[k] = False
            for handler in lane_handlers[k]:
                handler.on_fit_end(states[k])
        if not active.any():
            break
    for k in range(num_lanes):
        if active[k]:
            for handler in lane_handlers[k]:
                handler.on_fit_end(states[k])

    trainer = Trainer(resolved)
    outcomes = []
    for k, lane in enumerate(lanes):
        model = models[k]
        model.load_state_dict({name: params[name].data[k] for name in names})
        histories[k].stop_reason = states[k].stop_reason
        test_mse = trainer.evaluate(model, splits[k].test)
        train_mse = trainer.evaluate(model, splits[k].train)
        result = IndividualResult(
            identifier=lane.cell.individual.identifier,
            model_name=model_name,
            graph_method=lane.cell.graph_method,
            test_mse=test_mse,
            train_mse=train_mse,
            learned_graph=None,
            static_graph=lane.graph,
            history=histories[k],
            # The scatter above already loaded this lane's trained rows
            # into the solo model, so its state_dict is the export.
            state=model.state_dict() if lane.cell.export_state else None,
        )
        outcomes.append((result, needs_solo[k]))
    return outcomes


def run_stacked(cells: list, pending: list[int], config: "ParallelConfig",
                finish: Callable[[int, IndividualResult], None]) -> list[int]:
    """Train every stackable pending cell; return the leftover indices.

    Eligible cells are grouped by :func:`_group_key`, expanded into lanes
    (one per repeat), chunked by ``config.stack_size`` and trained by
    :func:`_execute_stack`.  Completed cells are delivered through
    ``finish`` (which journals and reports exactly like the solo path).
    Everything else — ineligible cells, lanes from a failed chunk,
    divergent aggregates — comes back sorted for the per-individual
    scheduler, whose retry/reseed/on_error semantics then apply
    unchanged.  Fault injection is a per-attempt contract the stack
    cannot honor, so an injector bypasses stacking entirely.
    """
    if config.fault_injector is not None:
        return list(pending)
    leftover: list[int] = []
    groups: "OrderedDict[tuple, list[int]]" = OrderedDict()
    for index in pending:
        reason = stackable_reason(cells[index])
        if reason is not None:
            leftover.append(index)
            continue
        groups.setdefault(_group_key(cells[index]), []).append(index)
    for indices in groups.values():
        first = cells[indices[0]]
        resolved = resolve_trainer_config(first.model_name,
                                          first.trainer_config)
        lanes = [_Lane(index=index, cell=cells[index], graph=graph, seed=seed)
                 for index in indices
                 for graph, seed in zip(cells[index].graphs,
                                        cells[index].seeds)]
        repeat_results: dict[int, list[IndividualResult]] = {
            index: [] for index in indices}
        fallback: set[int] = set()
        for start in range(0, len(lanes), config.stack_size):
            chunk = lanes[start:start + config.stack_size]
            try:
                outcomes = _execute_stack(chunk, resolved)
            except Exception as error:
                touched = sorted({lane.index for lane in chunk})
                warnings.warn(
                    f"stacked execution failed for {len(chunk)} lane(s) of "
                    f"{len(touched)} cell(s) "
                    f"({', '.join(cells[i].label for i in touched)}): "
                    f"{type(error).__name__}: {error}; falling back to "
                    f"per-individual execution", RuntimeWarning,
                    stacklevel=2)
                fallback.update(lane.index for lane in chunk)
                continue
            for lane, (result, needs_solo) in zip(chunk, outcomes):
                if needs_solo:
                    fallback.add(lane.index)
                else:
                    repeat_results[lane.index].append(result)
        for index in indices:
            if index in fallback:
                leftover.append(index)
                continue
            aggregate = aggregate_repeats(repeat_results[index])
            if is_divergent(aggregate):
                # Identical policy to the solo schedulers: a divergent
                # aggregate is a retryable failure, never a result.  The
                # leftover re-run owns the retry/reseed budget.
                leftover.append(index)
            else:
                finish(index, aggregate)
    leftover.sort()
    return leftover
