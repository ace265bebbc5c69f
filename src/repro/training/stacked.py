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
* every lane runs the *solo* callbacks (:func:`build_callbacks` over the
  same specs) against its own :class:`TrainingContext`, whose model is a
  view over that lane's parameter rows, so a lane stops at exactly the
  epoch its solo fit would and restores exactly the weights it would.

:func:`lane_forward` is the one stacked forward per model; the serving
engine (:mod:`repro.serving.engine`) runs the same function under
``no_grad``.  The bit-identity is asserted end-to-end in
``tests/training`` / ``test_stacked.py``.

Eligibility and fallback
------------------------
Not every cell can stack: :func:`stackable_reason` names the blocker
(model without a stacked forward, non-Adam optimizer, exotic callbacks,
learned-graph export, a graph that routes sparse, ...).  A host whose
batched lane ops fail the import-time exactness probe of
:mod:`repro.nn.stacked_ops` stacks nothing: every cell then runs the
bitwise-correct solo path.  :func:`run_stacked` trains the eligible
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
from functools import partial
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
from ..models import MODEL_REGISTRY, create_model
from ..models.tgcn import time_rows
from ..nn import gcn_conv_stacked, lane_affine, stacked_ops
from ..nn.graph import gcn_routes_sparse
from ..nn.graphcache import cached_stacked_adjacency
from ..nn.module import Parameter
from ..optim import StackedAdam
from .callbacks import TrainingContext, build_callbacks
from .faults import is_divergent
from .history import TrainingHistory
from .personalized import (IndividualResult, aggregate_repeats,
                           resolve_trainer_config)
from .trainer import Trainer, TrainerConfig

if TYPE_CHECKING:
    from .parallel import CohortCell, ParallelConfig

__all__ = ["stackable_reason", "run_stacked", "lane_forward", "lane_reason",
           "STACKED_MODELS"]

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
    return lane_reason(cell.model_name, getattr(cell, "graphs", ()),
                       getattr(cell, "dtype", None),
                       getattr(cell, "sparse", "auto"))


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


class _LaneView:
    """One lane's rows of the stacked parameters, as a solo model.

    The ``model`` of a lane's :class:`TrainingContext`: the solo
    callbacks snapshot and restore weights through it exactly as they do
    through a :class:`~repro.nn.module.Module`, touching only this lane.
    """

    def __init__(self, params: "OrderedDict[str, Parameter]", lane: int):
        self._params = params
        self._lane = lane

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((name, param.data[self._lane].copy())
                           for name, param in self._params.items())

    def load_state_dict(self, state: dict) -> None:
        with no_grad():
            for name, param in self._params.items():
                data = param.data
                data[self._lane] = state[name]
                param.data = data  # reassign to bump the version counter


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
    leaf gradients keep the memory layout of the transpose views they came
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


def _forward_a3tgcn(params: "OrderedDict[str, Parameter]", inputs: np.ndarray,
                    dropout_masks: Tensor | None, *,
                    propagation: np.ndarray, hidden_size: int) -> Tensor:
    """Stacked A3TGCN / T-GCN forward: ``(K, S, L, V) -> (K, S, V)``.

    Lane ``k`` replays :meth:`repro.models.a3tgcn.A3TGCN.forward` (and the
    T-GCN cell inside it) node for node: the input stage over the lane's
    :func:`~repro.models.tgcn.time_rows`, with the ``(K, V, V)``
    propagation stack, then the per-step hidden halves.  Every lane takes
    the row layout its solo forward would; lanes that would take
    different layouts raise, and the stack runs solo instead.  Without
    an ``attention`` parameter this is
    :meth:`repro.models.tgcn.TGCNForecaster.forward`: the final hidden
    state is the context.
    """
    lanes, samples, seq_len, nodes = inputs.shape
    h = hidden_size
    gates_w = params["cell.gates.weight"]
    cand_w = params["cell.candidate.weight"]
    rows, stride = time_rows(Tensor(inputs))
    gc = gcn_conv_stacked(
        propagation,
        gcn_conv_stacked(propagation, rows,
                         params["cell.graph_conv1.linear.weight"],
                         params["cell.graph_conv1.linear.bias"]).relu(),
        params["cell.graph_conv2.linear.weight"],
        params["cell.graph_conv2.linear.bias"])
    u_gates = lane_affine(gc, gates_w[:, :, :h], params["cell.gates.bias"])
    u_cand = lane_affine(gc, cand_w[:, :, :h], params["cell.candidate.bias"])
    hidden = Tensor(np.zeros((lanes, samples, nodes, h), dtype=inputs.dtype))
    states = []
    for t in range(seq_len):
        span = slice(t * stride, t * stride + samples)
        gates = (u_gates[:, span]
                 + lane_affine(hidden, gates_w[:, :, h:])).sigmoid()
        update = gates[..., :h]
        reset = gates[..., h:]
        candidate = (u_cand[:, span]
                     + lane_affine(reset * hidden, cand_w[:, :, h:])).tanh()
        hidden = update * hidden + (1.0 - update) * candidate
        states.append(hidden)
    context = hidden
    if "attention" in params and seq_len > 1:
        sequence = stack(states, axis=2)
        weights = softmax(params["attention"], axis=1).reshape(
            lanes, 1, seq_len, 1, 1)
        context = (sequence * weights).sum(axis=2)
    if dropout_masks is not None:
        context = context * dropout_masks
    out = lane_affine(context, params["head.weight"], params["head.bias"])
    return out.reshape(lanes, samples, nodes)


def _forward_lstm(params: "OrderedDict[str, Parameter]", inputs: np.ndarray,
                  dropout_masks: Tensor | None, *, hidden_size: int,
                  num_layers: int) -> Tensor:
    """Stacked LSTM forward: ``(K, S, L, V) -> (K, S, V)``.

    Lane ``k`` replays :class:`repro.models.lstm.LSTMForecaster` — the
    per-step :class:`~repro.nn.recurrent.LSTMCell` gate math and the final
    hidden-state head.  The solo model's stacked-outputs return value is
    unused by the forecaster, so it is not materialized here.
    """
    lanes, samples, seq_len = inputs.shape[:3]
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


def lane_forward(model_name: str, model, graphs,
                 samples: int) -> tuple[Callable, tuple]:
    """The stacked forward of ``K`` lanes of ``model_name``.

    ``model`` is one lane's solo model (every lane shares its
    architecture) and ``graphs`` holds the ``K`` lane adjacencies.
    Returns ``(forward, mask_shape)``: ``forward(params, inputs,
    dropout_masks)`` maps ``(K, samples, L, V)`` inputs to
    ``(K, samples, V)`` forecasts, and ``mask_shape`` is the shape of one
    lane's dropout mask — the solo model's dropout input.  The stacked
    trainer and the serving engine both run lanes through this function.
    """
    hidden_size = model.hidden_size
    if MODEL_REGISTRY[model_name].requires_graph:
        propagation = cached_stacked_adjacency(graphs)
        return (partial(_forward_a3tgcn, propagation=propagation,
                        hidden_size=hidden_size),
                (samples, propagation.shape[-1], hidden_size))
    return (partial(_forward_lstm, hidden_size=hidden_size,
                    num_layers=model.lstm.num_layers),
            (samples, hidden_size))


def lane_reason(model_name: str, graphs, dtype, mode: str) -> str | None:
    """Why lanes of a stacked model cannot replay solo bitwise, or None.

    The checks the lane forward itself imposes, shared by
    :func:`stackable_reason` and the serving engine: the host's batched
    lane ops must pass the import-time exactness probe
    (:data:`repro.nn.stacked_ops.BATCHED_LANES`), and no lane graph may
    route its solo :class:`~repro.nn.graph.GCNConv` through the sparse
    path under ``mode`` — the lane ops are dense-only.  ``None`` graphs
    (static probes carry none) are skipped.
    """
    if not stacked_ops.BATCHED_LANES:
        return _reason("stack-host-inexact")
    if MODEL_REGISTRY[model_name].requires_graph and any(
            gcn_routes_sparse(graph, dtype, mode)
            for graph in graphs if graph is not None):
        return _reason("stack-sparse", mode=mode)
    return None


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
    # The solo callbacks validate their kwargs on construction; building
    # them first fails a misconfigured stack before any training work.
    callbacks = [build_callbacks(resolved.callbacks) for _ in lanes]
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

    run_lanes, mask_shape = lane_forward(
        model_name, models[0], [lane.graph for lane in lanes], samples)
    dropout_p = models[0].dropout.p

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
        return run_lanes(params, inputs, masks)

    optimizer = StackedAdam(
        params.values(), lr=resolved.learning_rate,
        weight_decay=0.0 if resolved.weight_decay is None
        else resolved.weight_decay, **dict(resolved.optimizer_kwargs))

    # Each lane runs the solo callbacks against its own context, whose
    # model is a view over the lane's parameter rows.
    contexts = [TrainingContext(model=_LaneView(params, k),
                                optimizer=optimizer, config=resolved,
                                history=TrainingHistory(),
                                max_epochs=resolved.epochs)
                for k in range(num_lanes)]
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
            capturing = jit is not None and jit.wants_capture
            capture = jit.capture() if capturing \
                else contextlib.nullcontext()
            with capture:
                lane_loss = _lane_losses(forward(), targets, loss_name)
                masked = where(cond, lane_loss,
                               Tensor(np.zeros(num_lanes,
                                               dtype=lane_loss.data.dtype)))
                total = masked.sum()
                total.backward()
            if capturing:
                jit.seal(total, watch={"lane_loss": lane_loss})
            loss_values = [float(lane_loss.data[k])
                           for k in range(num_lanes)]
            if capturing:
                # As in ``Trainer.fit``: only capture epochs free the
                # graph before the next forward.
                lane_loss = masked = total = None
            norms = None
            if grad_clip is not None:
                norms = _clip_lane_grads(param_list, active, grad_clip)
            optimizer.step(active=active)
        for k in range(num_lanes):
            if not active[k]:
                continue
            ctx = contexts[k]
            ctx.epoch = epoch
            ctx.loss = loss_values[k]
            ctx.grad_norm = None if norms is None else float(norms[k])
            ctx.history.record(ctx.loss, grad_norm=ctx.grad_norm,
                               lr=learning_rate)
            for callback in callbacks[k]:
                callback.on_epoch_end(ctx)
            if not ctx.stop_requested and not callbacks[k] \
                    and not np.isfinite(ctx.loss):
                # No callbacks: the solo fit would NaN-train to the epoch
                # budget and its divergent result would be discarded by
                # the scheduler anyway.  Freeze the lane (NaN rows are
                # masked out of the optimizer, so siblings are untouched)
                # and hand it back for the canonical solo re-run.
                needs_solo[k] = True
                ctx.stop_requested = True
            if ctx.stop_requested:
                active[k] = False
        if not active.any():
            break
    if jit is not None:
        jit.release()
    # A stopped lane is frozen (the optimizer skips its rows), so ending
    # every lane's fit here leaves the same weights as ending it at its
    # stop epoch.
    for k in range(num_lanes):
        for callback in callbacks[k]:
            callback.on_fit_end(contexts[k])

    trainer = Trainer(resolved)
    outcomes = []
    for k, lane in enumerate(lanes):
        model = models[k]
        model.load_state_dict({name: params[name].data[k] for name in names})
        history = contexts[k].history
        history.stop_reason = contexts[k].stop_reason
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
            history=history,
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
