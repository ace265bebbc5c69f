"""Batched forecast inference over loaded cohort shards.

Serving a cohort means answering many small questions — "given this
individual's last ``seq_len`` observations, what comes next?" — against
many small per-individual models.  Running them one by one wastes the
very structure PR 6 exploited for training: individuals under the same
(model, seq_len, dtype, config) shard share every shape, so their
forward passes stack into one ``(K, S, L, V)`` tensor driven by one
``(K, V, V)`` propagation operand.

The engine therefore mirrors :mod:`repro.training.stacked`, forward-only:

* requests are micro-batched (a queue with a max batch size and a max
  linger, like any serving stack's batching window),
* a flush groups pending requests by shard — the same grouping key the
  stacked trainer uses for lanes — and replays the PR-6 lane forwards
  (``_forward_lstm`` / ``_forward_tgcn`` / ``_forward_a3tgcn``) under
  ``no_grad`` with dropout disabled, which makes every batched forecast
  **bitwise identical** to the individual's solo ``predict``,
* models outside the stackable set (or shards whose stored fast-path
  verdict says no) take the eager per-request path, and a batched
  forward that throws falls back to per-request eager execution so one
  poisoned request cannot take down its batch,
* failures are per-request structured records in the PR-5
  :class:`~repro.training.faults.CellFailure` vocabulary — a timed-out
  or exploding request yields a :class:`RequestFailure`, never an
  exception that kills unrelated requests.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..autodiff import get_default_dtype, no_grad, set_default_dtype
from ..autodiff.tensor import Tensor
from ..nn.graphcache import cached_stacked_adjacency
from ..training.faults import describe_exception
from ..training.stacked import (STACKED_MODELS, _forward_a3tgcn,
                                _forward_lstm, _forward_tgcn)
from .store import CohortArtifact, CohortShard

__all__ = ["ForecastRequest", "ForecastResponse", "RequestFailure",
           "InferenceEngine", "REQUEST_FAILURE_KINDS"]

#: Subset of :data:`repro.training.faults.FAILURE_KINDS` a forecast
#: request can die with (no retries, no pools at serve time).
REQUEST_FAILURE_KINDS = ("exception", "timeout")


@dataclass
class ForecastRequest:
    """One pending forecast: an individual plus an input window."""

    request_id: str
    identifier: str
    model_name: str
    #: ``(seq_len, num_variables)`` input window, already validated and
    #: cast to the shard dtype at submit time.
    window: np.ndarray = field(repr=False)
    #: Absolute ``time.monotonic()`` deadline, or ``None`` for no limit.
    deadline: float | None = None
    #: Monotonic submit timestamp (set by the engine).
    submitted: float = 0.0
    #: Submission sequence number — outcomes are returned in this order.
    seq: int = 0


@dataclass
class ForecastResponse:
    """A served forecast."""

    request_id: str
    identifier: str
    model_name: str
    prediction: np.ndarray = field(repr=False)
    #: True when served by the stacked batched path.
    batched: bool = False
    elapsed: float = 0.0


@dataclass
class RequestFailure:
    """Structured per-request failure (CellFailure vocabulary).

    Occupies the request's slot in the outcome stream, so callers keep
    request/outcome alignment without try/except around every submit.
    """

    request_id: str
    identifier: str
    #: One of :data:`REQUEST_FAILURE_KINDS`.
    kind: str
    error_type: str
    message: str
    elapsed: float = 0.0

    def __str__(self) -> str:
        return (f"request {self.request_id} ({self.identifier}): "
                f"{self.kind} — {self.error_type}: {self.message}")


def _validated_timeout(timeout) -> float:
    """A request's timeout in seconds: any finite real number but a bool."""
    if isinstance(timeout, bool) or not isinstance(timeout, numbers.Real) \
            or not math.isfinite(timeout):
        raise ValueError(f"timeout must be a finite number of seconds, "
                         f"got {timeout!r}")
    return float(timeout)


class InferenceEngine:
    """Micro-batching forecast engine over one or more cohort shards.

    ``submit`` enqueues; a flush happens when the queue reaches
    ``max_batch_size``, when ``poll`` sees the oldest request has
    lingered past ``max_linger`` seconds, or when ``flush`` is called.
    ``forecast`` is the synchronous convenience: one request, processed
    immediately, answer or raise.
    """

    def __init__(self, shards, *, max_batch_size: int = 32,
                 max_linger: float = 0.05, use_stacked: bool = True):
        if isinstance(shards, CohortShard):
            shards = [shards]
        self.shards: "list[CohortShard]" = list(shards)
        if not self.shards:
            raise ValueError("InferenceEngine needs at least one shard")
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got "
                             f"{max_batch_size}")
        if not 0 <= max_linger < math.inf:
            raise ValueError(f"max_linger must be finite and >= 0, got "
                             f"{max_linger}")
        self.max_batch_size = int(max_batch_size)
        self.max_linger = float(max_linger)
        self.use_stacked = bool(use_stacked)
        # Routing: (identifier, model) -> (shard, artifact), plus the set
        # of models per identifier so model_name=None resolves when
        # unambiguous.
        self._routes: "dict[tuple[str, str], tuple[CohortShard, CohortArtifact]]" = {}
        self._models_of: "dict[str, list[str]]" = {}
        for shard in self.shards:
            for identifier, artifact in shard.artifacts.items():
                key = (identifier, shard.model_name)
                if key in self._routes:
                    raise ValueError(
                        f"duplicate route {key}: two shards serve the same "
                        f"(individual, model) pair")
                self._routes[key] = (shard, artifact)
                self._models_of.setdefault(identifier, []).append(
                    shard.model_name)
        self._pending: "list[ForecastRequest]" = []
        self._solo_cache: "dict[tuple[str, str], object]" = {}
        self._sparse_verdicts: "dict[tuple, bool]" = {}
        self._seq = itertools.count()
        self.stats = {"submitted": 0, "served": 0, "batched": 0,
                      "eager": 0, "failed": 0, "flushes": 0}

    # ------------------------------------------------------------------
    # Routing + validation
    # ------------------------------------------------------------------
    @property
    def individuals(self) -> "list[str]":
        return sorted(self._models_of)

    def _resolve(self, identifier: str, model_name: str | None):
        models = self._models_of.get(identifier)
        if not models:
            raise KeyError(f"unknown individual {identifier!r}; this engine "
                           f"serves {len(self._models_of)} individuals")
        if model_name is None:
            if len(models) > 1:
                raise KeyError(f"individual {identifier!r} is served by "
                               f"multiple models {sorted(models)}; pass "
                               f"model_name")
            model_name = models[0]
        route = self._routes.get((identifier, model_name))
        if route is None:
            raise KeyError(f"individual {identifier!r} has no "
                           f"{model_name!r} artifact (has: {sorted(models)})")
        return model_name, route

    def _validated_window(self, window, shard: CohortShard,
                          artifact: CohortArtifact) -> np.ndarray:
        if window is None:
            window = artifact.window_tail
            if window is None:
                raise ValueError(
                    f"no window given and artifact {artifact.identifier!r} "
                    f"stores no window_tail")
        window = np.asarray(window, dtype=np.dtype(shard.dtype))
        expected = (shard.seq_len, artifact.num_variables)
        if window.shape != expected:
            raise ValueError(
                f"window for {artifact.identifier!r} has shape "
                f"{window.shape}; the {shard.model_name} shard expects "
                f"{expected} (seq_len, num_variables)")
        return window

    # ------------------------------------------------------------------
    # Queue API
    # ------------------------------------------------------------------
    def submit(self, identifier: str, window=None, *,
               model_name: str | None = None, timeout: float | None = None,
               request_id: str | None = None) -> "list":
        """Enqueue one request; returns outcomes if this triggered a flush.

        Routing/validation problems surface immediately as a returned
        :class:`RequestFailure` (never enqueued); otherwise the request
        waits for a full batch, a linger expiry (:meth:`poll`) or an
        explicit :meth:`flush`.
        """
        now = time.monotonic()
        seq = next(self._seq)
        self.stats["submitted"] += 1
        if request_id is None:
            request_id = f"req-{seq}"
        try:
            model_name, (shard, artifact) = self._resolve(identifier,
                                                          model_name)
            window = self._validated_window(window, shard, artifact)
            deadline = None if timeout is None \
                else now + _validated_timeout(timeout)
        except (KeyError, ValueError, TypeError) as error:
            error_type, message, _ = describe_exception(error)
            self.stats["failed"] += 1
            return [RequestFailure(request_id=request_id,
                                   identifier=identifier, kind="exception",
                                   error_type=error_type, message=message)]
        self._pending.append(ForecastRequest(
            request_id=request_id, identifier=identifier,
            model_name=model_name, window=window, deadline=deadline,
            submitted=now, seq=seq))
        if len(self._pending) >= self.max_batch_size:
            return self.flush()
        return []

    def poll(self) -> "list":
        """Flush iff the oldest pending request has out-lingered the window."""
        if not self._pending:
            return []
        waited = time.monotonic() - self._pending[0].submitted
        if waited >= self.max_linger:
            return self.flush()
        return []

    def flush(self) -> "list":
        """Process every pending request; outcomes in submission order."""
        batch, self._pending = self._pending, []
        if not batch:
            return []
        self.stats["flushes"] += 1
        outcomes = self._process(batch)
        outcomes.sort(key=lambda outcome: getattr(outcome, "_seq", 0))
        for outcome in outcomes:
            if isinstance(outcome, RequestFailure):
                self.stats["failed"] += 1
            else:
                self.stats["served"] += 1
        return outcomes

    def forecast(self, identifier: str, window=None, *,
                 model_name: str | None = None) -> np.ndarray:
        """Synchronous single forecast; raises on failure.

        Bypasses the queue (pending requests are untouched) and serves
        through the eager path — the same solo ``predict`` the batched
        path is bit-identical to.
        """
        model_name, (shard, artifact) = self._resolve(identifier, model_name)
        window = self._validated_window(window, shard, artifact)
        request = ForecastRequest(request_id="sync", identifier=identifier,
                                  model_name=model_name, window=window,
                                  submitted=time.monotonic())
        previous = get_default_dtype()
        try:
            set_default_dtype(shard.dtype)
            outcome = self._run_eager(shard, artifact, request)
        finally:
            set_default_dtype(previous)
        if isinstance(outcome, RequestFailure):
            raise RuntimeError(str(outcome))
        return outcome.prediction

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _process(self, batch: "list[ForecastRequest]") -> "list":
        now = time.monotonic()
        outcomes: "list" = []
        groups: "OrderedDict[int, list[ForecastRequest]]" = OrderedDict()
        shard_by_id: "dict[int, CohortShard]" = {}
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                # Past deadline: never run — a response the caller has
                # already given up on is wasted compute for the batch.
                failure = RequestFailure(
                    request_id=request.request_id,
                    identifier=request.identifier, kind="timeout",
                    error_type="DeadlineExceeded",
                    message=(f"deadline passed "
                             f"{now - request.deadline:.3f}s before "
                             f"execution"),
                    elapsed=now - request.submitted)
                failure._seq = request.seq
                outcomes.append(failure)
                continue
            shard, _ = self._routes[(request.identifier, request.model_name)]
            groups.setdefault(id(shard), []).append(request)
            shard_by_id[id(shard)] = shard
        for shard_id, requests in groups.items():
            shard = shard_by_id[shard_id]
            previous = get_default_dtype()
            try:
                set_default_dtype(shard.dtype)
                results = self._run_group(shard, requests)
            finally:
                set_default_dtype(previous)
            for request, outcome in zip(requests, results):
                outcome._seq = request.seq
                outcomes.append(outcome)
        return outcomes

    def _stackable(self, shard: CohortShard) -> bool:
        if shard.model_name not in STACKED_MODELS:
            return False
        # Stored static verdict gates the batched path; absent verdicts
        # (old manifests) default to eligible — the fallback still
        # guards execution.
        if shard.verdict is not None and not shard.verdict.get("stackable",
                                                               True):
            return False
        if shard.model_name != "lstm" and self._sparse_routed(shard):
            return False
        return True

    def _sparse_routed(self, shard: CohortShard) -> bool:
        """Whether any of the shard's graphs routes through the CSR path.

        The batched lane forward is dense-only, while a solo model routes
        per the sparse autoswitch; mixing the two would break the
        solo == batched bitwise contract, so such shards serve eagerly.
        Memoized per (shard, mode): the verdict depends only on the
        stored graphs and the process-wide sparse mode.
        """
        from ..nn.sparse import get_sparse_mode, should_use_sparse

        mode = get_sparse_mode()
        if mode == "never":
            return False
        key = (shard.version, shard.model_name, shard.dtype, mode)
        cached = self._sparse_verdicts.get(key)
        if cached is None:
            cached = False
            for artifact in shard.artifacts.values():
                if artifact.adjacency is None:
                    continue
                graph = np.asarray(artifact.adjacency)
                v = graph.shape[0]
                nnz = np.count_nonzero((graph != 0) | np.eye(v, dtype=bool))
                if should_use_sparse(v, nnz / (v * v), shard.dtype, mode):
                    cached = True
                    break
            self._sparse_verdicts[key] = cached
        return cached

    def _run_group(self, shard: CohortShard,
                   requests: "list[ForecastRequest]") -> "list":
        if self.use_stacked and len(requests) > 1 and self._stackable(shard):
            try:
                return self._run_stacked(shard, requests)
            except Exception:  # noqa: BLE001 - isolate: retry eagerly
                # The batched forward died as a whole; rerun each request
                # alone so one poisoned input cannot sink its batchmates.
                pass
        return [self._run_eager(shard, shard.artifacts[r.identifier], r)
                for r in requests]

    def _solo_model(self, shard: CohortShard, identifier: str):
        key = (shard.version, shard.model_name, shard.dtype, identifier,
               shard.config_digest)
        model = self._solo_cache.get(key)
        if model is None:
            model = shard.materialize(identifier)
            self._solo_cache[key] = model
        return model

    def _run_eager(self, shard: CohortShard, artifact: CohortArtifact,
                   request: ForecastRequest):
        start = time.monotonic()
        try:
            model = self._solo_model(shard, request.identifier)
            prediction = model.predict(request.window[None])[0]
            self.stats["eager"] += 1
            return ForecastResponse(
                request_id=request.request_id, identifier=request.identifier,
                model_name=request.model_name, prediction=prediction,
                batched=False, elapsed=time.monotonic() - start)
        except Exception as error:  # noqa: BLE001 - per-request isolation
            error_type, message, _ = describe_exception(error)
            return RequestFailure(
                request_id=request.request_id, identifier=request.identifier,
                kind="exception", error_type=error_type, message=message,
                elapsed=time.monotonic() - start)

    def _run_stacked(self, shard: CohortShard,
                     requests: "list[ForecastRequest]") -> "list":
        start = time.monotonic()
        identifiers = tuple(request.identifier for request in requests)
        artifacts = [shard.artifacts[identifier]
                     for identifier in identifiers]
        models = [self._solo_model(shard, identifier)
                  for identifier in identifiers]
        per_model = [dict(model.named_parameters()) for model in models]
        # Plain Tensors, not Parameters: Parameter casts to the default
        # dtype on construction, and the stack must keep the stored
        # arrays bit-for-bit.  (The default dtype is the shard dtype
        # here anyway, but the engine should not depend on that.)
        params = OrderedDict(
            (name, Tensor(np.stack([pm[name].data for pm in per_model])))
            for name in per_model[0])
        # (K, 1, L, V): each request is one sample in its lane.
        inputs = np.stack([request.window[None] for request in requests])
        hidden_size = models[0].hidden_size
        with no_grad():
            if shard.model_name == "a3tgcn":
                propagation = cached_stacked_adjacency(
                    [artifact.adjacency for artifact in artifacts])
                out = _forward_a3tgcn(params, propagation, inputs,
                                      hidden_size, shard.seq_len, None)
            elif shard.model_name == "tgcn":
                propagation = cached_stacked_adjacency(
                    [artifact.adjacency for artifact in artifacts])
                out = _forward_tgcn(params, propagation, inputs,
                                    hidden_size, shard.seq_len, None)
            else:
                out = _forward_lstm(params, inputs, hidden_size,
                                    shard.seq_len,
                                    models[0].lstm.num_layers, None)
        data = out.data  # (K, 1, V)
        elapsed = time.monotonic() - start
        self.stats["batched"] += len(requests)
        return [ForecastResponse(
            request_id=request.request_id, identifier=request.identifier,
            model_name=request.model_name,
            prediction=np.ascontiguousarray(data[k, 0]), batched=True,
            elapsed=elapsed)
            for k, request in enumerate(requests)]
