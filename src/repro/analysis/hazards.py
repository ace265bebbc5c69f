"""Single-source catalogue of fast-path hazards.

Every reason string the runtime can produce when a cell falls off a fast
path — a :class:`~repro.autodiff.trace.TraceInvalid` raised by the
trace-capture JIT, or a blocker returned by
:func:`repro.training.stacked.stackable_reason` — is defined HERE, once,
as a :class:`Hazard` entry with a stable key, a static-analysis rule code
(REPRO007–REPRO012) and a message template.  ``trace.py`` and
``stacked.py`` format their diagnostics through :func:`reason`; the
static analyzers (:mod:`repro.analysis.shapecheck`,
:mod:`repro.analysis.fastpath`, the lint rules) classify through the same
table, and :func:`match_reason` maps an observed runtime string back to
its key.  A completeness test asserts the bijection: a new runtime reason
without a catalogue entry (or vice versa) fails the suite, so the static
checker and the runtime cannot drift.

This module is pure data + stdlib; it must not import anything from
``repro`` (``trace.py`` and ``stacked.py`` import *it*).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Hazard", "HAZARDS", "reason", "match_reason", "hazard_code",
    "REPLAYABLE_OPS", "UNREPLAYABLE_TENSOR_METHODS",
    "STACKED_MODELS", "STACKED_LOSSES", "STACKED_OPTIMIZERS",
    "STACKED_OPTIMIZER_KWARGS", "LANE_CALLBACKS",
]


@dataclass(frozen=True)
class Hazard:
    """One fast-path hazard: a stable key, its rule code, its message."""

    #: Stable machine key (``"getitem-fancy"``, ``"stack-loss"``, ...).
    key: str
    #: Static-analysis rule code this hazard is detected under.
    code: str
    #: ``str.format`` template producing the runtime diagnostic.
    template: str

    @property
    def pattern(self) -> "re.Pattern[str]":
        return _PATTERNS[self.key]


def _compile(template: str) -> "re.Pattern[str]":
    """Turn a message template into a matcher for produced strings."""
    parts = re.split(r"\{[^{}]+\}", template)
    body = "(.+?)".join(re.escape(part) for part in parts)
    # ``EpochJIT._invalidate`` appends this suffix when the retrace
    # budget is gone; the key is unchanged.
    return re.compile(body + r"(?: \(retrace budget exhausted\))?\Z",
                      re.DOTALL)


# ---------------------------------------------------------------------------
# The catalogue.
#
# REPRO007  data-dependent ``where()`` condition
# REPRO008  fancy (integer-array) indexing
# REPRO009  matmul with a 1-D operand
# REPRO010  op with no replay rule
# REPRO011  epoch-unstable graph structure or constants
# REPRO012  stacked-backend blocker
# ---------------------------------------------------------------------------
_ENTRIES = (
    # -- trace verification hazards (autodiff/trace.py) --------------------
    Hazard("where-data-dependent", "REPRO007",
           "where() condition is recomputed per epoch (data-dependent "
           "mask); only a persistent externally-updated mask array can "
           "be replayed"),
    Hazard("getitem-fancy", "REPRO008",
           "fancy (integer-array) indexing is not replayable"),
    Hazard("matmul-1d", "REPRO009",
           "matmul with a 1-D operand is not replayable"),
    Hazard("op-unsupported", "REPRO010",
           "op #{i} ({op}) has no replay rule"),
    Hazard("lane-propagate-changed", "REPRO011",
           "lane_propagate operator stack changed between captured epochs"),
    Hazard("csr-operator-changed", "REPRO011",
           "csr_matmul sparse operator changed between captured epochs"),
    Hazard("const-annotation-changed", "REPRO011",
           "constant annotation changed between epochs"),
    Hazard("const-provider-changed", "REPRO011",
           "volatile constant provider changed"),
    Hazard("const-value-changed", "REPRO011",
           "a constant input changed value between the captured epochs "
           "without a volatile/derived annotation"),
    Hazard("op-count-changed", "REPRO011",
           "op count changed between epochs ({n1} vs {n2})"),
    Hazard("empty-tape", "REPRO011",
           "empty tape (nothing was captured)"),
    Hazard("root-moved", "REPRO011",
           "backward root moved between epochs"),
    Hazard("watch-moved", "REPRO011",
           "watched tensor {name!r} moved between epochs"),
    Hazard("op-changed", "REPRO011",
           "op #{i} changed ({q1} vs {q2})"),
    Hazard("shape-changed", "REPRO011",
           "op #{i} ({op}) output changed shape/dtype: {before} vs {after}"),
    Hazard("scalar-operands-changed", "REPRO011",
           "op #{i} ({op}) scalar operands changed"),
    Hazard("signature-unreadable", "REPRO011",
           "op #{i} ({op}) signature unreadable: {error}"),
    Hazard("arity-changed", "REPRO011",
           "op #{i} ({op}) arity changed"),
    Hazard("requires-grad-flipped", "REPRO011",
           "op #{i} input requires_grad flipped"),
    Hazard("wiring-changed", "REPRO011",
           "op #{i} input graph wiring changed"),
    Hazard("graph-extends-beyond-epoch", "REPRO011",
           "op #{i} ({op}) input graph extends beyond the captured epoch "
           "or was rewired"),
    Hazard("param-identity-changed", "REPRO011",
           "op #{i} ({op}) parameter identity changed"),
    Hazard("watch-not-captured", "REPRO011",
           "watched tensor {name!r} is not a captured node"),
    Hazard("derived-source-outside", "REPRO011",
           "derived constant source is outside the captured epoch"),
    Hazard("param-storage-rebound", "REPRO011",
           "parameter storage was rebound"),
    # -- stacked-backend blockers (training/stacked.py) ---------------------
    Hazard("stack-no-forward", "REPRO012",
           "model {model!r} has no stacked forward"),
    Hazard("stack-learned-graph", "REPRO012",
           "learned-graph export requires per-individual execution"),
    Hazard("stack-optimizer", "REPRO012",
           "optimizer {optimizer!r} has no lane-masked implementation "
           "(only 'adam')"),
    Hazard("stack-optimizer-kwargs", "REPRO012",
           "optimizer kwargs {extra} are not supported when stacking"),
    Hazard("stack-loss", "REPRO012",
           "loss {loss!r} has no lane-wise form"),
    Hazard("stack-callbacks", "REPRO012",
           "callbacks {unsupported} are not lane-maskable"),
    Hazard("stack-sparse", "REPRO012",
           "sparse graph propagation (mode {mode!r}) has no stacked "
           "lane-exact form; cell runs per-individual"),
)

HAZARDS: dict[str, Hazard] = {entry.key: entry for entry in _ENTRIES}
_PATTERNS: dict[str, "re.Pattern[str]"] = {
    entry.key: _compile(entry.template) for entry in _ENTRIES}


def reason(key: str, **fields) -> str:
    """Format the canonical diagnostic for hazard ``key``."""
    return HAZARDS[key].template.format(**fields)


def match_reason(text: str | None) -> str | None:
    """Map a runtime diagnostic back to its hazard key (None if unknown).

    Templates with holes match any concrete rendering, including the
    ``(retrace budget exhausted)`` suffix appended when the JIT gives up.
    """
    if not text:
        return None
    for entry in _ENTRIES:
        if _PATTERNS[entry.key].fullmatch(text):
            return entry.key
    return None


def hazard_code(key: str) -> str:
    """The REPRO code a hazard key is reported under."""
    return HAZARDS[key].code


# ---------------------------------------------------------------------------
# Fast-path capability tables (shared by runtime and static analysis).
# ---------------------------------------------------------------------------

#: Op names with a replay rule in the trace JIT.  A sync test asserts this
#: equals ``{r.name for r in repro.autodiff.trace._rules().values()}``.
REPLAYABLE_OPS = frozenset({
    "__add__", "__neg__", "__mul__", "__truediv__", "__pow__",
    "exp", "log", "sqrt", "tanh", "sigmoid", "relu", "leaky_relu", "abs",
    "sum", "reshape", "transpose", "__getitem__", "__matmul__",
    "concat", "stack", "where",
    "lane_matmul", "lane_bias_add", "lane_propagate", "csr_matmul",
})

#: Tensor primitives with *no* replay rule — a forward that records one of
#: these on the tape disables the JIT (``op-unsupported``).  Composites
#: (``mean``, ``var``, ``__sub__``, ``swapaxes``) lower to replayable
#: primitives and are fine.
UNREPLAYABLE_TENSOR_METHODS = frozenset({
    "clip", "max", "pad_last", "unfold_last",
})

#: Models with a lane-exact stacked forward.
STACKED_MODELS = ("lstm", "tgcn", "a3tgcn")

#: Optimizers with a lane-masked stacked implementation.
STACKED_OPTIMIZERS = ("adam",)

#: Losses with a lane-wise (per-row) form identical to the solo reduction.
STACKED_LOSSES = ("mse", "mae", "huber")

#: Callback specs with a lane-masked handler implementation.
LANE_CALLBACKS = ("early-stopping", "divergence-guard")

#: Optimizer kwargs the stacked Adam understands.
STACKED_OPTIMIZER_KWARGS = ("betas", "eps")
