"""Abstract interpretation of model forwards over symbolic shapes.

The trace-capture JIT and the stacked cohort backend only discover at
*runtime* — one wasted capture epoch per cell — that a model falls off
the fast path.  This module executes a model's ``forward`` symbolically
instead: the window batch is an :class:`AbstractTensor` whose axes are
:class:`Dim` symbols ``(B, L, V)`` and which carries no data, only shape,
dtype and ``requires_grad``.  Every traced tensor op propagates those
three facts through the same dunder/method surface the real
:class:`~repro.autodiff.tensor.Tensor` exposes (the real class defers to
us via the ``__tensor_priority__`` marker), while the interpreter records
an op event stream plus every fast-path hazard from the shared
:mod:`repro.analysis.hazards` catalogue:

* an op with no replay rule (``unfold_time``, ``max``, ``clip``) →
  ``op-unsupported``;
* matmul with a 1-D operand → ``matmul-1d``;
* ``where()`` on a data-dependent condition → ``where-data-dependent``;
* fancy indexing → ``getitem-fancy``.

Model subgraphs that involve only concrete parameters (MTGNN's graph
learner, A3TGCN's period attention, every ``weight.T``) execute for real;
a trace hook captures that sub-tape.  The driver runs **two** abstract
epochs with a deterministic parameter perturbation in between —
simulating an optimizer step — then compares the epochs exactly the way
``EpochJIT._verify`` would: op streams must align, real-tape ops must
have replay rules, and constant inputs are classified through
``trace._classify_constant`` itself, so an epoch-unstable constant (e.g.
MTGNN's top-k re-sparsification mask) surfaces statically as the *same*
``const-value-changed`` hazard the runtime would report.

Scope/conservatism (documented, tested in the agreement suite):

* Symbol tags are cosmetic for reporting; all dims carry concrete probe
  values, so data-independent shape arithmetic stays exact.
* Basic indexing loses symbol tags (shapes stay correct); ``reshape``
  re-tags through caller-threaded :class:`Dim` values.
* A constant that is rebuilt per epoch but happens to keep its value
  under perturbation is accepted, exactly as the runtime accepts a
  stable snapshot.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass

import numpy as np

from ..autodiff import functional as _functional
from ..autodiff import tensor as _tensor_mod
from ..autodiff.tensor import Tensor
from . import hazards as _hazards

__all__ = ["Dim", "AbstractTensor", "AbstractArray", "AbstractExecutionError",
           "HazardHit", "OpEvent", "ForwardAnalysis", "symbolic_input",
           "analyze_forward"]


class AbstractExecutionError(RuntimeError):
    """The forward used a construct the interpreter cannot model."""


class Dim(int):
    """A concrete probe dimension tagged with a symbol name.

    Subclassing ``int`` lets symbolic dims thread through model code that
    does arithmetic, builds ``np.zeros`` states, or compares shapes — all
    of that stays exact — while reported shapes render as ``(B, L, V)``.
    Arithmetic results decay to plain ``int`` (the tag is lost), which is
    the desired semantics: ``2 * H`` is not ``H``.
    """

    def __new__(cls, value: int, symbol: str | None = None) -> "Dim":
        self = super().__new__(cls, value)
        self.symbol = symbol
        return self

    def __repr__(self) -> str:
        return self.symbol if self.symbol else int.__repr__(self)


@dataclass(frozen=True)
class HazardHit:
    """One statically-detected fast-path hazard."""

    key: str
    code: str
    message: str
    op: str | None = None
    op_index: int | None = None

    def to_dict(self) -> dict:
        return {"key": self.key, "code": self.code, "message": self.message,
                "op": self.op, "op_index": self.op_index}


@dataclass(frozen=True)
class OpEvent:
    """One abstract tensor op: name + output shape/dtype/grad flag."""

    index: int
    name: str
    shape: tuple
    dtype: str
    requires_grad: bool


def _ints(shape) -> tuple[int, ...]:
    return tuple(int(d) for d in shape)


def _retag(out_shape, in_shapes) -> tuple:
    """Prefer Dim-tagged dims (right-aligned) in a broadcast result."""
    out = list(out_shape)
    for shape in in_shapes:
        for off in range(1, len(shape) + 1):
            if off > len(out):
                break
            d = shape[-off]
            if isinstance(d, Dim) and not isinstance(out[-off], Dim) \
                    and int(d) == int(out[-off]):
                out[-off] = d
    return tuple(out)


def _broadcast(*shapes) -> tuple:
    out = np.broadcast_shapes(*[_ints(s) for s in shapes])
    return _retag(out, shapes)


def _promote(*parts) -> np.dtype:
    """Result dtype for operands given as dtypes or python scalars.

    ``np.result_type`` implements NEP-50 weak promotion for python
    scalars, which matches what the eager ops do on real arrays.
    """
    return np.result_type(*parts)


def _reduce_shape(shape, axis, keepdims) -> tuple:
    nd = len(shape)
    if axis is None:
        axes = tuple(range(nd))
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % nd for a in axes)
    if keepdims:
        return tuple(1 if i in axes else d for i, d in enumerate(shape))
    return tuple(d for i, d in enumerate(shape) if i not in axes)


class _Ctx:
    """Per-epoch recording context shared by every abstract value."""

    def __init__(self):
        self.events: list[OpEvent] = []
        self.hazards: list[HazardHit] = []
        #: Real ``Tensor`` operands of abstract ops, by (event index, slot).
        self.real_operands: dict[tuple[int, int], Tensor] = {}

    def record(self, name: str, shape, dtype, requires_grad: bool,
               operands: tuple = ()) -> int:
        index = len(self.events)
        self.events.append(OpEvent(index, name, _ints(shape), str(dtype),
                                   bool(requires_grad)))
        for slot, operand in operands:
            if isinstance(operand, Tensor):
                self.real_operands[(index, slot)] = operand
        return index

    def hazard(self, key: str, *, op: str | None = None,
               index: int | None = None, message: str | None = None) -> None:
        if message is None:
            fields = {}
            template = _hazards.HAZARDS[key].template
            if "{i}" in template:
                fields["i"] = index if index is not None else -1
            if "{op}" in template:
                fields["op"] = op or "?"
            message = _hazards.reason(key, **fields)
        self.hazards.append(HazardHit(key, _hazards.hazard_code(key),
                                      message, op, index))


class AbstractArray:
    """Shape/dtype stand-in for ``tensor.data`` on an abstract tensor.

    Model code occasionally reads ``.data`` for non-differentiable math
    (loss masks, mask thresholds).  Values derived from it are flagged
    ``data_dependent`` so a ``where()`` on them raises the same hazard
    the trace JIT would.  Materialization (``np.asarray``) is refused
    loudly — that construct cannot be shape-checked.
    """

    __slots__ = ("shape", "dtype", "data_dependent", "_ctx")

    def __init__(self, shape, dtype, ctx: _Ctx, data_dependent: bool = True):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.data_dependent = data_dependent
        self._ctx = ctx

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(_ints(self.shape))) if self.shape else 1

    def __array__(self, *args, **kwargs):
        raise AbstractExecutionError(
            "cannot materialize an AbstractArray; the forward performs "
            "data-dependent numpy work the shape checker cannot model")

    def __repr__(self) -> str:
        return f"AbstractArray(shape={self.shape}, dtype={self.dtype})"

    def _compare(self, other) -> "AbstractArray":
        shape = getattr(other, "shape", ())
        return AbstractArray(_broadcast(self.shape, shape), np.bool_,
                             self._ctx, data_dependent=True)

    __gt__ = __lt__ = __ge__ = __le__ = _compare

    def _binary(self, other) -> "AbstractArray":
        if isinstance(other, (AbstractArray, np.ndarray)):
            shape, dt = other.shape, other.dtype
        else:
            shape, dt = (), other
        return AbstractArray(_broadcast(self.shape, shape),
                             _promote(self.dtype, dt), self._ctx)

    __add__ = __radd__ = __sub__ = __rsub__ = _binary
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _binary

    def __neg__(self) -> "AbstractArray":
        return AbstractArray(self.shape, self.dtype, self._ctx,
                             self.data_dependent)

    def max(self, axis=None, keepdims: bool = False) -> "AbstractArray":
        return AbstractArray(_reduce_shape(self.shape, axis, keepdims),
                             self.dtype, self._ctx, self.data_dependent)

    def astype(self, dtype, copy: bool = True) -> "AbstractArray":
        return AbstractArray(self.shape, dtype, self._ctx,
                             self.data_dependent)

    def reshape(self, *shape) -> "AbstractArray":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return AbstractArray(_resolve_reshape(self.shape, shape), self.dtype,
                             self._ctx, self.data_dependent)


def _resolve_reshape(in_shape, new_shape) -> tuple:
    total = int(np.prod(_ints(in_shape))) if in_shape else 1
    known = 1
    negative = None
    for i, d in enumerate(new_shape):
        if int(d) == -1:
            if negative is not None:
                raise AbstractExecutionError("reshape with two -1 dims")
            negative = i
        else:
            known *= int(d)
    if negative is not None:
        if known == 0 or total % known:
            raise AbstractExecutionError(
                f"cannot reshape {tuple(in_shape)} into {tuple(new_shape)}")
        return tuple(total // known if i == negative else d
                     for i, d in enumerate(new_shape))
    if known != total:
        raise AbstractExecutionError(
            f"cannot reshape {tuple(in_shape)} into {tuple(new_shape)}")
    return tuple(new_shape)


def _operand(value):
    """(shape, dtype-or-scalar, requires_grad, real_tensor) of an operand."""
    if isinstance(value, AbstractTensor):
        return value.shape, value.dtype, value.requires_grad, None
    if isinstance(value, Tensor):
        return value.shape, value.dtype, value.requires_grad, value
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype, False, None
    if isinstance(value, (int, float, np.number, np.bool_)):
        return (), value, False, None
    raise AbstractExecutionError(
        f"unsupported operand type {type(value).__name__} in abstract op")


class AbstractTensor:
    """Symbolic :class:`~repro.autodiff.tensor.Tensor`: shape, dtype and
    ``requires_grad`` only — no data, no gradients.

    ``__tensor_priority__`` makes the real class's binary dunders return
    ``NotImplemented`` when the other operand is abstract, so python
    dispatches to our reflected methods and ``real op abstract`` works
    (``GCNConv``'s ``propagation @ x``, the attention ``vs @ scores``).
    ``__array_ufunc__ = None`` does the same for raw numpy operands.
    """

    __tensor_priority__ = 1000.0
    __array_ufunc__ = None
    __slots__ = ("shape", "dtype", "requires_grad", "_ctx")

    def __init__(self, shape, dtype, requires_grad: bool, ctx: _Ctx):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.requires_grad = bool(requires_grad)
        self._ctx = ctx

    # -- introspection ---------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(_ints(self.shape))) if self.shape else 1

    @property
    def data(self) -> AbstractArray:
        return AbstractArray(self.shape, self.dtype, self._ctx)

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of a 0-d abstract tensor")
        return int(self.shape[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"AbstractTensor(shape={self.shape}, dtype={self.dtype}{flag})"

    def detach(self) -> "AbstractTensor":
        return AbstractTensor(self.shape, self.dtype, False, self._ctx)

    def numpy(self) -> AbstractArray:
        return self.data

    # -- op plumbing -----------------------------------------------------
    def _emit(self, name, shape, dtype, requires_grad,
              operands: tuple = ()) -> "AbstractTensor":
        out = AbstractTensor(shape, dtype, requires_grad, self._ctx)
        self._ctx.record(name, shape, dtype, requires_grad, operands)
        return out

    def _binary(self, other, name: str) -> "AbstractTensor":
        shape, dt, rg, real = _operand(other)
        out_shape = _broadcast(self.shape, shape)
        dtype = _promote(self.dtype, dt)
        return self._emit(name, out_shape, dtype, self.requires_grad or rg,
                          operands=((1, real),))

    def _unary(self, name: str) -> "AbstractTensor":
        return self._emit(name, self.shape, self.dtype, self.requires_grad)

    # -- elementwise arithmetic -----------------------------------------
    def __add__(self, other):
        return self._binary(other, "__add__")

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, "__sub__")

    def __rsub__(self, other):
        return self._binary(other, "__rsub__")

    def __mul__(self, other):
        return self._binary(other, "__mul__")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, "__truediv__")

    def __rtruediv__(self, other):
        return self._binary(other, "__rtruediv__")

    def __neg__(self):
        return self._unary("__neg__")

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise AbstractExecutionError("__pow__ exponent must be a scalar")
        return self._emit("__pow__", self.shape,
                          _promote(self.dtype, exponent), self.requires_grad)

    def exp(self):
        return self._unary("exp")

    def log(self):
        return self._unary("log")

    def sqrt(self):
        return self._unary("sqrt")

    def tanh(self):
        return self._unary("tanh")

    def sigmoid(self):
        return self._unary("sigmoid")

    def relu(self):
        return self._unary("relu")

    def leaky_relu(self, negative_slope: float = 0.01):
        return self._unary("leaky_relu")

    def abs(self):
        return self._unary("abs")

    def clip(self, low, high):
        out = self._unary("clip")
        if out.requires_grad:
            self._ctx.hazard("op-unsupported", op="clip",
                             index=len(self._ctx.events) - 1)
        return out

    # -- comparisons (mirror Tensor: non-differentiable) -----------------
    def __gt__(self, other):
        return self.data._compare(other)

    def __lt__(self, other):
        return self.data._compare(other)

    # -- linear algebra --------------------------------------------------
    def __matmul__(self, other):
        return self._matmul(other, reflected=False)

    def __rmatmul__(self, other):
        return self._matmul(other, reflected=True)

    def _matmul(self, other, reflected: bool) -> "AbstractTensor":
        shape, dt, rg, real = _operand(other)
        if not shape and not isinstance(dt, np.dtype):
            raise AbstractExecutionError("matmul with a scalar operand")
        a, b = (shape, self.shape) if reflected else (self.shape, shape)
        out_shape = _matmul_shape(a, b)
        out = self._emit("__matmul__", out_shape, _promote(self.dtype, dt),
                         self.requires_grad or rg,
                         operands=((0 if reflected else 1, real),))
        if out.requires_grad and (len(a) < 2 or len(b) < 2):
            self._ctx.hazard("matmul-1d", op="__matmul__",
                             index=len(self._ctx.events) - 1)
        return out

    # -- reductions ------------------------------------------------------
    def _reduce(self, name, axis, keepdims) -> "AbstractTensor":
        return self._emit(name, _reduce_shape(self.shape, axis, keepdims),
                          self.dtype, self.requires_grad)

    def sum(self, axis=None, keepdims: bool = False):
        return self._reduce("sum", axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return self._reduce("mean", axis, keepdims)

    def var(self, axis=None, keepdims: bool = False):
        return self._reduce("var", axis, keepdims)

    def max(self, axis=None, keepdims: bool = False):
        out = self._reduce("max", axis, keepdims)
        if out.requires_grad:
            self._ctx.hazard("op-unsupported", op="max",
                             index=len(self._ctx.events) - 1)
        return out

    # -- shape manipulation ----------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return self._emit("reshape", _resolve_reshape(self.shape, shape),
                          self.dtype, self.requires_grad)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        axes, _ = _tensor_mod.transpose_axes(axes, self.ndim)
        out_shape = tuple(self.shape[a] for a in axes)
        return self._emit("transpose", out_shape, self.dtype,
                          self.requires_grad)

    @property
    def T(self):
        return self.transpose()

    def swapaxes(self, a: int, b: int):
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, key):
        parts = key if isinstance(key, tuple) else (key,)
        if any(isinstance(p, AbstractArray) for p in parts):
            self._ctx.hazard("getitem-fancy", op="__getitem__",
                             index=len(self._ctx.events))
            raise AbstractExecutionError(
                "indexing with a data-dependent array cannot be shape-checked")
        fancy = any(isinstance(p, (list, np.ndarray)) for p in parts)
        dummy = np.broadcast_to(np.zeros(1, np.int8), _ints(self.shape))
        out_shape = _retag(dummy[key].shape, (self.shape,))
        out = self._emit("__getitem__", out_shape, self.dtype,
                         self.requires_grad)
        if fancy and out.requires_grad:
            self._ctx.hazard("getitem-fancy", op="__getitem__",
                             index=len(self._ctx.events) - 1)
        return out

    def unfold_time(self, size: int, dilation: int = 1, left_pad: int = 0,
                    keep: slice = slice(None)):
        t_out = len(_tensor_mod.unfold_time_windows(self.shape, size,
                                                    dilation, left_pad, keep))
        out_shape = self.shape[:-2] + (t_out, int(self.shape[-1]) * size)
        out = self._emit("unfold_time", out_shape, self.dtype,
                         self.requires_grad)
        if out.requires_grad:
            self._ctx.hazard("op-unsupported", op="unfold_time",
                             index=len(self._ctx.events) - 1)
        return out


def _matmul_shape(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        raise AbstractExecutionError("matmul with a 0-d operand")
    if len(a) == 1 and len(b) == 1:
        _require_contract(a[0], b[0], a, b)
        return ()
    if len(b) == 1:
        _require_contract(a[-1], b[0], a, b)
        return a[:-1]
    if len(a) == 1:
        _require_contract(a[0], b[-2], a, b)
        return b[:-2] + (b[-1],)
    _require_contract(a[-1], b[-2], a, b)
    return _broadcast(a[:-2], b[:-2]) + (a[-2], b[-1])


def _require_contract(m: int, n: int, a: tuple, b: tuple) -> None:
    if int(m) != int(n):
        raise AbstractExecutionError(
            f"matmul contraction mismatch: {tuple(a)} @ {tuple(b)}")


# ---------------------------------------------------------------------------
# Patched module-level functions (concat / stack / where / softmax).
# ---------------------------------------------------------------------------
def _is_abstract(value) -> bool:
    return isinstance(value, AbstractTensor)


def _abstract_patches(ctx: _Ctx) -> dict:
    real_concat = _tensor_mod.concat
    real_stack = _tensor_mod.stack
    real_where = _tensor_mod.where
    real_softmax = _functional.softmax
    real_log_softmax = _functional.log_softmax

    def concat(tensors, axis: int = 0):
        tensors = list(tensors)
        if not any(_is_abstract(t) for t in tensors):
            return real_concat(tensors, axis=axis)
        shapes, dtypes, rgs, operands = _gather(tensors)
        nd = len(shapes[0])
        ax = axis % nd
        for s in shapes[1:]:
            if len(s) != nd or _ints(s[:ax] + s[ax + 1:]) != \
                    _ints(shapes[0][:ax] + shapes[0][ax + 1:]):
                raise AbstractExecutionError(
                    f"concat shape mismatch along axis {axis}: {shapes}")
        out_shape = shapes[0][:ax] \
            + (sum(int(s[ax]) for s in shapes),) + shapes[0][ax + 1:]
        out = AbstractTensor(out_shape, _promote(*dtypes), any(rgs), ctx)
        ctx.record("concat", out_shape, out.dtype, out.requires_grad,
                   operands)
        return out

    def stack(tensors, axis: int = 0):
        tensors = list(tensors)
        if not any(_is_abstract(t) for t in tensors):
            return real_stack(tensors, axis=axis)
        shapes, dtypes, rgs, operands = _gather(tensors)
        for s in shapes[1:]:
            if _ints(s) != _ints(shapes[0]):
                raise AbstractExecutionError(
                    f"stack shape mismatch: {shapes}")
        nd = len(shapes[0]) + 1
        ax = axis % nd
        out_shape = shapes[0][:ax] + (len(shapes),) + shapes[0][ax:]
        out = AbstractTensor(out_shape, _promote(*dtypes), any(rgs), ctx)
        ctx.record("stack", out_shape, out.dtype, out.requires_grad,
                   operands)
        return out

    def _gather(tensors):
        shapes, dtypes, rgs, operands = [], [], [], []
        for slot, t in enumerate(tensors):
            shape, dt, rg, real = _operand(t)
            shapes.append(tuple(shape))
            dtypes.append(dt)
            rgs.append(rg)
            if real is not None:
                operands.append((slot, real))
        return shapes, dtypes, rgs, tuple(operands)

    def where(condition, a, b):
        if not (isinstance(condition, AbstractArray) or _is_abstract(a)
                or _is_abstract(b)):
            return real_where(condition, a, b)
        cond_shape = getattr(condition, "shape", ())
        a_shape, a_dt, a_rg, a_real = _operand(a)
        b_shape, b_dt, b_rg, b_real = _operand(b)
        out_shape = _broadcast(cond_shape, a_shape, b_shape)
        out = AbstractTensor(out_shape, _promote(a_dt, b_dt),
                             a_rg or b_rg, ctx)
        index = ctx.record("where", out_shape, out.dtype, out.requires_grad,
                           ((1, a_real), (2, b_real)))
        if out.requires_grad and isinstance(condition, AbstractArray) \
                and condition.data_dependent:
            ctx.hazard("where-data-dependent", op="where", index=index)
        return out

    def softmax(x, axis: int = -1):
        if not _is_abstract(x):
            return real_softmax(x, axis=axis)
        out = AbstractTensor(x.shape, x.dtype, x.requires_grad, ctx)
        ctx.record("softmax", x.shape, x.dtype, x.requires_grad)
        return out

    def log_softmax(x, axis: int = -1):
        if not _is_abstract(x):
            return real_log_softmax(x, axis=axis)
        out = AbstractTensor(x.shape, x.dtype, x.requires_grad, ctx)
        ctx.record("log_softmax", x.shape, x.dtype, x.requires_grad)
        return out

    return {"concat": concat, "stack": stack, "where": where,
            "softmax": softmax, "log_softmax": log_softmax}


@contextlib.contextmanager
def _patched_functions(ctx: _Ctx):
    """Swap abstract-aware wrappers into every ``repro.*`` namespace.

    The originals are matched by object identity, so any module that did
    ``from ..autodiff import softmax`` (or re-exported it) gets the
    wrapper too — including ``repro.autodiff.tensor.where`` itself, which
    ``huber`` re-imports at call time.
    """
    originals = {"concat": _tensor_mod.concat, "stack": _tensor_mod.stack,
                 "where": _tensor_mod.where,
                 "softmax": _functional.softmax,
                 "log_softmax": _functional.log_softmax}
    replacements = _abstract_patches(ctx)
    touched: list[tuple[object, str, object]] = []
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if name != "repro" and not name.startswith("repro."):
            continue
        for fname, original in originals.items():
            if getattr(module, fname, None) is original:
                setattr(module, fname, replacements[fname])
                touched.append((module, fname, original))
    try:
        yield
    finally:
        for module, fname, original in reversed(touched):
            setattr(module, fname, original)


# ---------------------------------------------------------------------------
# Two-epoch driver.
# ---------------------------------------------------------------------------
def symbolic_input(batch: int, seq_len: int, num_variables: int, dtype,
                   ctx: _Ctx) -> AbstractTensor:
    """The symbolic window batch ``(B, L, V)``."""
    shape = (Dim(batch, "B"), Dim(seq_len, "L"), Dim(num_variables, "V"))
    return AbstractTensor(shape, dtype, False, ctx)


_LOSS_FNS = {"mse": _functional.mse, "mae": _functional.mae,
             "huber": _functional.huber}


def _perturb_parameters(model, scale: float) -> None:
    """Deterministic stand-in for an optimizer step between epochs.

    Multiplicative, sign-alternating and ramped so near-ties in
    data-dependent selections (MTGNN's top-k rows) reorder; the pattern
    is phase-shifted per parameter so coupled parameters do not move in
    lockstep.  No RNG: the analysis must be reproducible.
    """
    with _tensor_mod.no_grad():
        for index, p in enumerate(model.parameters()):
            arr = p.data
            if arr.size == 0:
                continue
            ramp = np.linspace(1.0, 2.0, arr.size).reshape(arr.shape)
            pattern = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
            sign = np.resize(np.roll(pattern, index),
                             arr.size).reshape(arr.shape)
            delta = scale * ramp * sign * (np.abs(arr) + 0.1)
            p.data = (arr + delta).astype(arr.dtype, copy=False)


@dataclass
class ForwardAnalysis:
    """Result of symbolically executing one model forward twice."""

    hazards: tuple[HazardHit, ...]
    events: tuple[OpEvent, ...]
    output_shape: tuple
    output_dtype: str

    @property
    def clean(self) -> bool:
        return not self.hazards


def analyze_forward(model, *, loss: str | None = "mse", batch: int = 7,
                    perturb_scale: float = 0.25) -> ForwardAnalysis:
    """Symbolically execute ``model.forward`` over two perturbed epochs.

    Returns every fast-path hazard the trace JIT would hit at runtime for
    this architecture/loss, without training anything.  ``model`` must be
    a :class:`~repro.models.base.Forecaster`; it is left in ``train()``
    mode with perturbed parameters — callers pass a throwaway instance.
    """
    if loss is not None and loss not in _LOSS_FNS:
        raise ValueError(f"unknown loss {loss!r}; expected one of "
                         f"{tuple(_LOSS_FNS)}")
    model.train()
    params = list(model.parameters())
    dtype = params[0].dtype if params else _tensor_mod.get_default_dtype()
    targets = np.zeros((batch, model.num_variables), dtype=dtype)
    epochs = []
    for epoch in range(2):
        if epoch:
            _perturb_parameters(model, perturb_scale)
        ctx = _Ctx()
        inputs = symbolic_input(batch, model.seq_len, model.num_variables,
                                dtype, ctx)
        tape: list[Tensor] = []
        previous_hook = _tensor_mod._TRACE_HOOK
        _tensor_mod.set_trace_hook(tape.append)
        try:
            with _patched_functions(ctx):
                output = model(inputs)
                if loss is not None:
                    _LOSS_FNS[loss](output, targets)
        finally:
            _tensor_mod.set_trace_hook(previous_hook)
        if not isinstance(output, AbstractTensor):
            raise AbstractExecutionError(
                f"{type(model).__name__}.forward returned "
                f"{type(output).__name__}, not an abstract tensor — the "
                "forward never consumed the symbolic input")
        epochs.append((ctx, tape, output))
    hazards = _compare_epochs(epochs)
    ctx, _, output = epochs[-1]
    return ForwardAnalysis(hazards=hazards, events=tuple(ctx.events),
                           output_shape=output.shape,
                           output_dtype=str(output.dtype))


def _compare_epochs(epochs) -> tuple[HazardHit, ...]:
    """Cross-epoch verification, mirroring ``EpochJIT._verify``."""
    from ..autodiff import trace as _trace

    (ctx1, tape1, _), (ctx2, tape2, _) = epochs
    hits: dict[tuple, HazardHit] = {}

    def add(hit: HazardHit) -> None:
        hits.setdefault((hit.key, hit.op), hit)

    def add_key(key, *, op=None, index=None, message=None):
        if message is None:
            ctx = _Ctx()
            ctx.hazard(key, op=op, index=index)
            add(ctx.hazards[0])
        else:
            add(HazardHit(key, _hazards.hazard_code(key), message, op, index))

    for hit in (*ctx1.hazards, *ctx2.hazards):
        add(hit)

    # 1. The abstract op streams must align exactly.
    ev1 = [(e.name, e.shape, e.dtype, e.requires_grad) for e in ctx1.events]
    ev2 = [(e.name, e.shape, e.dtype, e.requires_grad) for e in ctx2.events]
    if len(ev1) != len(ev2):
        add_key("op-count-changed",
                message=_hazards.reason("op-count-changed",
                                        n1=len(ev1), n2=len(ev2)))
    else:
        for i, (e1, e2) in enumerate(zip(ev1, ev2)):
            if e1[0] != e2[0]:
                add_key("op-changed", op=e2[0], index=i,
                        message=_hazards.reason("op-changed", i=i,
                                                q1=e1[0], q2=e2[0]))
            elif e1[1:3] != e2[1:3]:
                add_key("shape-changed", op=e2[0], index=i,
                        message=_hazards.reason(
                            "shape-changed", i=i, op=e2[0],
                            before=e1[1:3], after=e2[1:3]))
            elif e1[3] != e2[3]:
                add_key("requires-grad-flipped", op=e2[0], index=i)

    # 2. The concrete sub-tape (parameter-only subgraphs) must replay:
    #    every op needs a replay rule and constants must classify cleanly.
    rules = _trace._rules()
    if len(tape1) != len(tape2):
        add_key("op-count-changed",
                message=_hazards.reason("op-count-changed",
                                        n1=len(tape1), n2=len(tape2)))
        return tuple(sorted(hits.values(), key=lambda h: (h.code, h.key)))
    for i, (t1, t2) in enumerate(zip(tape1, tape2)):
        name = t2._backward.__qualname__.split(".<locals>")[0]
        if t1._backward.__code__ is not t2._backward.__code__:
            add_key("op-changed", op=name, index=i,
                    message=_hazards.reason(
                        "op-changed", i=i, q1=t1._backward.__qualname__,
                        q2=t2._backward.__qualname__))
            continue
        rule = rules.get(t2._backward.__code__)
        if rule is None:
            add_key("op-unsupported", op=name, index=i)
        if len(t1._parents) != len(t2._parents):
            add_key("arity-changed", op=name, index=i)
            continue
        for p1, p2 in zip(t1._parents, t2._parents):
            _check_constant_pair(p1, p2, name, i, add_key, _trace)

    # 3. Real constant operands of *abstract* ops (initial states, dropout
    #    masks, loss targets): classified exactly like runtime constants.
    for key in sorted(set(ctx1.real_operands) | set(ctx2.real_operands)):
        t1 = ctx1.real_operands.get(key)
        t2 = ctx2.real_operands.get(key)
        index = key[0]
        name = ctx2.events[index].name if index < len(ctx2.events) else "?"
        if t1 is None or t2 is None:
            add_key("wiring-changed", op=name, index=index)
            continue
        if t1._backward is not None or t2._backward is not None:
            continue  # graph-wired operand: verified via the tape above
        _check_constant_pair(t1, t2, name, index, add_key, _trace)

    return tuple(sorted(hits.values(), key=lambda h: (h.code, h.key)))


def _check_constant_pair(p1, p2, name, index, add_key, _trace) -> None:
    if (p1._backward is None) != (p2._backward is None):
        add_key("wiring-changed", op=name, index=index)
        return
    if p1._backward is not None:
        return  # interior node: it appears on the tape and is checked there
    if p1.requires_grad or p2.requires_grad:
        if p1 is not p2:
            add_key("param-identity-changed", op=name, index=index)
        return
    try:
        _trace._classify_constant(_trace._constant_sig(p1), p2)
    except _trace.TraceInvalid as exc:
        key = _hazards.match_reason(str(exc)) or "const-value-changed"
        add_key(key, op=name, index=index, message=str(exc))
