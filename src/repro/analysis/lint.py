"""AST lint rules enforcing the reproduction's correctness invariants.

Every rule is a function registered in :data:`RULES` under a stable
``REPROxxx`` code.  Rules receive a :class:`FileContext` (parsed tree +
path classification) and yield :class:`Finding` records; suppression via
``# repro: noqa[...]`` comments is applied afterwards in
:func:`lint_source`.

Rule scoping follows the shape of the repo rather than a config file:

* ``REPRO001`` (legacy global RNG) exempts ``repro/training/seeding.py``,
  the one sanctioned home for seed derivation.
* ``REPRO003`` (tensor mutation) exempts ``repro/autodiff`` — the engine
  itself implements the bookkeeping — and test code, which mutates
  tensors on purpose to probe edge cases.
* ``REPRO005`` (dtype literals) applies only inside ``repro/nn`` and
  ``repro/models``, where a hard-coded ``np.float32``/``np.float64``
  bypasses :func:`repro.autodiff.get_default_dtype` and silently upcasts
  every downstream array.
* ``REPRO006`` (bare except) applies to library code, not tests.
"""

from __future__ import annotations

import ast
import re
import warnings
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Callable, Iterable, Iterator

__all__ = ["Finding", "FileContext", "RULES", "lint_source", "lint_file",
           "lint_paths", "render_rule_table"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"

    def to_json(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "code": self.code, "message": self.message}


class FileContext:
    """Parsed file plus the path classification the rules scope on."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        parts = PurePosixPath(Path(path).as_posix()).parts
        name = parts[-1] if parts else ""
        self.is_test = "tests" in parts or name.startswith(("test_", "bench_"))
        self.in_repro = "repro" in parts
        self.is_library = self.in_repro and not self.is_test
        self.in_autodiff = self.is_library and "autodiff" in parts
        self.in_seeding = self.is_library and parts[-2:] == ("training",
                                                            "seeding.py")
        self.dtype_scoped = self.is_library and ("nn" in parts
                                                 or "models" in parts)

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        return Finding(self.path, getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0), code, message)


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------

RuleFunc = Callable[[FileContext], Iterator[Finding]]

#: code -> (one-line summary, rule function); populated by @_rule.
RULES: "dict[str, tuple[str, RuleFunc]]" = {}


def _rule(code: str, summary: str):
    def register(func: RuleFunc) -> RuleFunc:
        RULES[code] = (summary, func)
        return func

    return register


def _attr_chain(node: ast.AST) -> list[str]:
    """``np.random.seed`` -> ["np", "random", "seed"]; [] if not a chain."""
    names: list[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
        return names[::-1]
    return []


# ----------------------------------------------------------------------
# REPRO001 — legacy global-state numpy RNG
# ----------------------------------------------------------------------

_LEGACY_RANDOM = frozenset({
    "seed", "rand", "randn", "random", "random_sample", "ranf", "sample",
    "randint", "random_integers", "choice", "shuffle", "permutation",
    "normal", "uniform", "standard_normal", "exponential", "poisson",
    "binomial", "beta", "gamma", "bytes", "get_state", "set_state",
})


@_rule("REPRO001", "legacy global-state np.random.* call")
def _check_global_rng(ctx: FileContext) -> Iterator[Finding]:
    """Global-RNG draws break the serial-vs-parallel bit-identity guarantee.

    Worker processes inherit independent copies of numpy's global
    ``RandomState``, so any draw from it makes ``--jobs N`` results diverge
    from serial ones.  All randomness must flow through an explicit seeded
    ``np.random.Generator`` (``np.random.default_rng(derive_seed(...))``).
    """
    if ctx.in_seeding:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if len(chain) == 3 and chain[0] in ("np", "numpy") \
                and chain[1] == "random" and chain[2] in _LEGACY_RANDOM:
            yield ctx.finding(
                node, "REPRO001",
                f"legacy global-state RNG call np.random.{chain[2]}() breaks "
                "serial/parallel bit-identity; draw from a seeded "
                "np.random.Generator (see repro.training.seeding.derive_seed)")


# ----------------------------------------------------------------------
# REPRO002 — nn.Module subclass missing super().__init__()
# ----------------------------------------------------------------------

#: Base-class names whose subclasses must chain __init__ (parameter and
#: submodule registration happens there; skipping it silently produces a
#: model whose parameters() is empty).
_MODULE_BASES = frozenset({"Module", "Forecaster"})


def _is_module_base(base: ast.expr) -> bool:
    if isinstance(base, ast.Name):
        return base.id in _MODULE_BASES
    if isinstance(base, ast.Attribute):
        return base.attr in _MODULE_BASES
    return False


def _calls_parent_init(init_def: ast.FunctionDef) -> bool:
    for node in ast.walk(init_def):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "__init__":
            # super().__init__(...) or ExplicitBase.__init__(self, ...)
            value = func.value
            if isinstance(value, ast.Call) and \
                    isinstance(value.func, ast.Name) and \
                    value.func.id == "super":
                return True
            if isinstance(value, (ast.Name, ast.Attribute)):
                return True
    return False


@_rule("REPRO002", "nn.Module subclass missing super().__init__()")
def _check_super_init(ctx: FileContext) -> Iterator[Finding]:
    """A Module __init__ that skips super() never creates ``_parameters``.

    Attribute assignment then raises (best case) or silently registers
    nothing (when the subclass assigns no parameters directly), producing
    a model the optimizer cannot see.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(_is_module_base(base) for base in node.bases):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                if not _calls_parent_init(item):
                    yield ctx.finding(
                        item, "REPRO002",
                        f"{node.name}.__init__ never calls "
                        "super().__init__(); parameters and submodules "
                        "will not be registered")


# ----------------------------------------------------------------------
# REPRO003 — Tensor .data/.grad writes outside no_grad
# ----------------------------------------------------------------------

def _is_no_grad_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "no_grad") or \
        (isinstance(func, ast.Attribute) and func.attr == "no_grad")


def _mutation_target(target: ast.expr) -> str | None:
    """Return "data"/"grad" if ``target`` writes through that attribute."""
    node = target
    while isinstance(node, (ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in ("data", "grad"):
        return node.attr
    return None


class _DataWriteVisitor(ast.NodeVisitor):
    """Collects ``x.data``/``x.grad`` writes outside ``with no_grad():``."""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.no_grad_depth = 0
        self.findings: list[Finding] = []

    def visit_With(self, node: ast.With) -> None:
        entered = sum(1 for item in node.items
                      if _is_no_grad_call(item.context_expr))
        self.no_grad_depth += entered
        self.generic_visit(node)
        self.no_grad_depth -= entered

    def _check(self, stmt: ast.stmt, targets: Iterable[ast.expr],
               value: ast.expr | None) -> None:
        if self.no_grad_depth:
            return
        for target in targets:
            attr = _mutation_target(target)
            if attr is None:
                continue
            # `p.grad = None` is the sanctioned zero_grad idiom.
            if attr == "grad" and isinstance(value, ast.Constant) \
                    and value.value is None:
                continue
            self.findings.append(self.ctx.finding(
                stmt, "REPRO003",
                f"write to Tensor.{attr} outside a no_grad() context; a "
                "recorded graph may still reference this storage — wrap in "
                "no_grad() (and use Tensor.copy_ for in-place updates so "
                "the version counter sees them)"))

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check(node, node.targets, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check(node, (node.target,), None)
        self.generic_visit(node)


@_rule("REPRO003", "Tensor .data/.grad write outside no_grad()")
def _check_data_writes(ctx: FileContext) -> Iterator[Finding]:
    """Mutating tensor storage mid-graph corrupts gradients.

    Backward closures read their inputs' *current* values, so a write
    between forward and backward silently differentiates the wrong data.
    The runtime version counter catches this at backward() time; the lint
    rule catches it at review time.
    """
    if not ctx.is_library or ctx.in_autodiff:
        return
    visitor = _DataWriteVisitor(ctx)
    visitor.visit(ctx.tree)
    yield from visitor.findings


# ----------------------------------------------------------------------
# REPRO004 — unpicklable callables in callback configuration
# ----------------------------------------------------------------------

def _is_callbackspec_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name) and func.id == "CallbackSpec":
        return True
    if isinstance(func, ast.Attribute) and func.attr == "make":
        base = func.value
        return isinstance(base, ast.Name) and base.id == "CallbackSpec" \
            or isinstance(base, ast.Attribute) and base.attr == "CallbackSpec"
    return False


def _lambdas_in(node: ast.AST) -> Iterator[ast.Lambda]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Lambda):
            yield sub


@_rule("REPRO004", "lambda in CallbackSpec / callback registry")
def _check_callback_pickle(ctx: FileContext) -> Iterator[Finding]:
    """Callback specs must pickle to reach ``--jobs N`` worker processes.

    A lambda (or any local closure) inside a ``CallbackSpec``, a
    ``TrainerConfig(callbacks=...)``, or a ``CALLBACK_REGISTRY`` entry
    raises ``PicklingError`` only when the parallel path first ships a
    :class:`CohortCell` — far from where the spec was written.
    """
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            subtrees: list[ast.AST] = []
            if _is_callbackspec_call(node):
                subtrees = [*node.args, *(kw.value for kw in node.keywords)]
            elif isinstance(node.func, ast.Name) \
                    and node.func.id == "TrainerConfig":
                subtrees = [kw.value for kw in node.keywords
                            if kw.arg == "callbacks"]
            for subtree in subtrees:
                for lam in _lambdas_in(subtree):
                    yield ctx.finding(
                        lam, "REPRO004",
                        "lambda in callback configuration is unpicklable "
                        "and will fail inside --jobs N worker processes; "
                        "use a registry name + keyword params")
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "CALLBACK_REGISTRY":
                    for lam in _lambdas_in(node.value):
                        yield ctx.finding(
                            lam, "REPRO004",
                            "lambda registered in CALLBACK_REGISTRY is "
                            "unpicklable in worker processes; register a "
                            "module-level class or function")


# ----------------------------------------------------------------------
# REPRO005 — hard-coded float dtype literals in nn/models
# ----------------------------------------------------------------------

@_rule("REPRO005", "hard-coded np.float32/np.float64 in nn/models")
def _check_dtype_literal(ctx: FileContext) -> Iterator[Finding]:
    """Layer/model code must respect the engine's switchable dtype.

    Experiments run float32 for speed while gradchecks run float64; a
    hard-coded literal silently upcasts every array it touches (numpy
    promotes float32 @ float64 to float64), costing the 2x speedup and
    masking precision bugs.  Deliberate full-precision numerics (eigen
    decompositions, closed-form solvers) carry ``# repro: noqa[REPRO005]``
    with a justification.
    """
    if not ctx.dtype_scoped:
        return
    for node in ast.walk(ctx.tree):
        chain = _attr_chain(node) if isinstance(node, ast.Attribute) else []
        if len(chain) == 2 and chain[0] in ("np", "numpy") \
                and chain[1] in ("float32", "float64"):
            yield ctx.finding(
                node, "REPRO005",
                f"hard-coded np.{chain[1]} bypasses "
                "repro.autodiff.get_default_dtype(); use the engine dtype "
                "or suppress with a justified noqa")


# ----------------------------------------------------------------------
# REPRO006 — bare except in library code
# ----------------------------------------------------------------------

@_rule("REPRO006", "bare except in library code")
def _check_bare_except(ctx: FileContext) -> Iterator[Finding]:
    """``except:`` swallows KeyboardInterrupt/SystemExit and real bugs.

    Library code must catch specific exceptions (or ``Exception`` with a
    comment when a boundary genuinely needs to be crash-proof).
    """
    if not ctx.is_library:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield ctx.finding(
                node, "REPRO006",
                "bare except: catches SystemExit/KeyboardInterrupt and "
                "hides bugs; name the exception types")


# ----------------------------------------------------------------------
# REPRO007–REPRO011 — trace-capture JIT hazards
#
# AST mirrors of the runtime ``TraceInvalid`` hazard families catalogued
# in :mod:`repro.analysis.hazards` (and detected exactly by the symbolic
# interpreter in :mod:`repro.analysis.shapecheck`).  The lint rules are
# deliberately heuristic — they flag the *patterns* at review time;
# ``ema-gnn check`` renders the precise per-model verdicts.  Intentional
# uses (documented fallbacks) carry justified noqa comments.
# ----------------------------------------------------------------------

def _contains_dot_data(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Attribute) and sub.attr == "data"
               for sub in ast.walk(node))


@_rule("REPRO007", "data-dependent where() condition (not JIT-replayable)")
def _check_where_data_dependent(ctx: FileContext) -> Iterator[Finding]:
    """A ``where`` whose condition reads activation values blocks replay.

    The trace-capture JIT replays a fixed op tape; a condition computed
    from ``.data`` (or an inline comparison) changes between epochs, so
    capture refuses the graph (hazard ``where-data-dependent``).  Library
    code that accepts falling back to the eager loop (ELU, Huber) says so
    with a justified noqa.
    """
    if not ctx.is_library:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name != "where":
            continue
        chain = _attr_chain(func)
        if chain and chain[0] in ("np", "numpy"):
            # np.where on plain arrays is outside the traced surface.
            continue
        condition = node.args[0]
        if isinstance(condition, ast.Compare) \
                or _contains_dot_data(condition):
            yield ctx.finding(
                node, "REPRO007",
                "where() condition is computed from tensor values; the "
                "trace-capture JIT cannot replay it (hazard "
                "where-data-dependent) — fits fall back to the eager loop")


_FANCY_INDEX_SOURCES = frozenset({"argsort", "argpartition", "nonzero"})


@_rule("REPRO008", "fancy Tensor indexing (not JIT-replayable)")
def _check_fancy_indexing(ctx: FileContext) -> Iterator[Finding]:
    """Integer-array subscripts pick data-dependent elements.

    ``x[argsort(...)]`` / ``x[[0, 2]]`` gathers by an index array the
    replay plan cannot re-derive (hazard ``getitem-fancy``); basic slices
    are fine.  Scoped to layer/model code, where subscripts run under the
    trace hook.
    """
    if not ctx.dtype_scoped:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Subscript):
            continue
        for sub in ast.walk(node.slice):
            if isinstance(sub, ast.List) or (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, (ast.Name, ast.Attribute))
                    and (sub.func.attr if isinstance(sub.func, ast.Attribute)
                         else sub.func.id) in _FANCY_INDEX_SOURCES):
                yield ctx.finding(
                    node, "REPRO008",
                    "subscript uses an index array (fancy indexing); the "
                    "trace-capture JIT cannot replay the gather (hazard "
                    "getitem-fancy) — use basic slices, or mask + multiply")
                break


def _is_flattening_call(node: ast.expr) -> bool:
    """``x.reshape(-1)`` / ``x.flatten()`` / ``x.ravel()`` expressions."""
    if not isinstance(node, ast.Call) or \
            not isinstance(node.func, ast.Attribute):
        return False
    name = node.func.attr
    if name in ("flatten", "ravel"):
        return True
    return name == "reshape" and len(node.args) == 1 and \
        isinstance(node.args[0], ast.UnaryOp) and \
        isinstance(node.args[0].op, ast.USub) and \
        isinstance(node.args[0].operand, ast.Constant) and \
        node.args[0].operand.value == 1


@_rule("REPRO009", "matmul with a flattened (1-D) operand")
def _check_matmul_1d(ctx: FileContext) -> Iterator[Finding]:
    """``@`` with a 1-D operand has no replay rule.

    numpy's matmul prepends/appends singleton axes for 1-D operands and
    strips them from the result, so the replay plan cannot rebuild the
    backward contraction (hazard ``matmul-1d``).  The AST can only see
    *syntactically* 1-D operands — ``.reshape(-1)`` / ``.flatten()``
    results; 1-D parameters are caught by ``ema-gnn check``.
    """
    if not ctx.dtype_scoped:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) \
                and (_is_flattening_call(node.left)
                     or _is_flattening_call(node.right)):
            yield ctx.finding(
                node, "REPRO009",
                "matmul with a flattened operand is 1-D; the trace-capture "
                "JIT has no replay rule for it (hazard matmul-1d) — keep a "
                "trailing axis and reshape after the product")


#: Tensor methods recorded without a replay rule (mirrors
#: ``repro.analysis.hazards.UNREPLAYABLE_TENSOR_METHODS``).
_UNREPLAYABLE_METHODS = frozenset({"clip", "max", "pad_last", "unfold_last"})


@_rule("REPRO010", "Tensor method without a JIT replay rule")
def _check_unreplayable_method(ctx: FileContext) -> Iterator[Finding]:
    """Some recorded ops are outside the replay-rule table.

    ``clip``/``max``/``pad_last``/``unfold_last`` record backward
    closures the fuser has no rule for (hazard ``op-unsupported``), so a
    forward that reaches them disables the JIT for that fit.  numpy-level
    uses (scalar statistics on plain arrays) and accepted fallbacks carry
    justified noqa comments.
    """
    if not ctx.dtype_scoped:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _UNREPLAYABLE_METHODS:
            chain = _attr_chain(node.func)
            if chain and chain[0] in ("np", "numpy"):
                continue
            yield ctx.finding(
                node, "REPRO010",
                f"Tensor.{node.func.attr}() has no JIT replay rule (hazard "
                "op-unsupported); fits that trace it fall back to the "
                "eager loop")


@_rule("REPRO011", "constant Tensor rebuilt inside forward()")
def _check_forward_constant(ctx: FileContext) -> Iterator[Finding]:
    """Per-forward ``Tensor(...)`` constants destabilize trace capture.

    The JIT snapshots constant inputs at capture and verifies them next
    epoch; a constant rebuilt from training-dependent values (a top-k
    mask, a normalized learned graph) changes and invalidates the trace
    (hazards ``const-value-changed`` / ``wiring-changed``).  Hoist truly
    static constants to ``__init__``, or route derived ones through an
    annotated provider (``repro.autodiff.trace``) so capture knows their
    lifecycle; accepted fallbacks carry a justified noqa.
    """
    if not ctx.dtype_scoped:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.FunctionDef) or node.name != "forward":
            continue
        if any(isinstance(sub, ast.Attribute) and sub.attr == "_trace_src"
               and isinstance(sub.ctx, ast.Store)
               for sub in ast.walk(node)):
            # The forward annotates its constants' trace lifecycle
            # (e.g. dropout's volatile mask) — capture handles them.
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) \
                    and isinstance(sub.func, ast.Name) \
                    and sub.func.id == "Tensor":
                yield ctx.finding(
                    sub, "REPRO011",
                    "Tensor(...) constructed inside forward(): the JIT "
                    "snapshots constants at capture, and a rebuilt value "
                    "that drifts invalidates the trace (hazard "
                    "const-value-changed) — hoist to __init__ or use an "
                    "annotated provider")


# ----------------------------------------------------------------------
# REPRO012 — trainer configs that fall off the stacked fast path
# ----------------------------------------------------------------------

@_rule("REPRO012", "TrainerConfig outside the stacked backend's support")
def _check_stack_eligibility(ctx: FileContext) -> Iterator[Finding]:
    """Literal optimizer/loss choices the stacked backend cannot lane-split.

    ``backend="stacked"`` trains whole cohorts in one parameter stack but
    only for the optimizers/losses with lane-wise implementations
    (:mod:`repro.analysis.hazards` tables, REPRO012 hazards); anything
    else silently routes every cell through the slower per-individual
    path.  Library code declaring such a config gets a review-time nudge;
    tests probe ineligible configs on purpose and are exempt.
    """
    if not ctx.is_library:
        return
    from .hazards import STACKED_LOSSES, STACKED_OPTIMIZERS

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) \
                or not isinstance(node.func, ast.Name) \
                or node.func.id != "TrainerConfig":
            continue
        for kw in node.keywords:
            if kw.arg not in ("optimizer", "loss") \
                    or not isinstance(kw.value, ast.Constant) \
                    or not isinstance(kw.value.value, str):
                continue
            supported = STACKED_OPTIMIZERS if kw.arg == "optimizer" \
                else STACKED_LOSSES
            if kw.value.value not in supported:
                yield ctx.finding(
                    kw.value, "REPRO012",
                    f"{kw.arg}={kw.value.value!r} has no stacked "
                    f"implementation (supported: {', '.join(supported)}); "
                    "cells with this config fall back to per-individual "
                    "execution under --backend stacked")


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9,\s]+)\])?", re.IGNORECASE)


def _noqa_map(source: str) -> dict[int, frozenset | None]:
    """line number -> suppressed codes (None = every code)."""
    suppressions: dict[int, frozenset | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressions[lineno] = None
        else:
            suppressions[lineno] = frozenset(
                c.strip().upper() for c in codes.split(",") if c.strip())
    return suppressions


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one source string; returns findings sorted by location."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [Finding(path, error.lineno or 1, (error.offset or 1) - 1,
                        "REPRO000", f"syntax error: {error.msg}")]
    ctx = FileContext(path, source, tree)
    findings: list[Finding] = []
    for code, (_, rule) in RULES.items():
        findings.extend(rule(ctx))
    noqa = _noqa_map(source)
    for lineno, codes in sorted(noqa.items()):
        unknown = sorted(set(codes or ()) - set(RULES))
        if unknown:
            # A typo'd code suppresses nothing — surface it instead of
            # silently leaving the author thinking they are covered.
            warnings.warn(
                f"{path}:{lineno}: noqa lists unknown lint code(s) "
                f"{', '.join(unknown)} (known: {', '.join(RULES)})",
                stacklevel=2)
    kept = []
    for finding in findings:
        codes = noqa.get(finding.line, frozenset())
        if codes is None or finding.code in codes:
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.line, f.col, f.code))
    return kept


def render_rule_table() -> str:
    """Render :data:`RULES` as the Markdown table embedded in DESIGN.md.

    DESIGN.md carries this table between ``RULES:BEGIN``/``RULES:END``
    markers; a sync test regenerates it from the registry so the docs can
    never drift from the code.
    """
    lines = ["| Code | Checks for |", "|------|------------|"]
    lines += [f"| `{code}` | {summary} |"
              for code, (summary, _) in sorted(RULES.items())]
    return "\n".join(lines)


def lint_file(path: str | Path) -> list[Finding]:
    """Lint one file on disk."""
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, str(path))


def _collect(paths: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.extend(sorted(
                f for f in p.rglob("*.py")
                if "__pycache__" not in f.parts
                and not any(part.startswith(".") for part in f.parts)))
        else:
            files.append(p)
    return files


def lint_paths(paths: Iterable[str | Path]) -> list[Finding]:
    """Lint files and directory trees; returns all findings, path-sorted."""
    findings: list[Finding] = []
    for path in _collect(paths):
        findings.extend(lint_file(path))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
