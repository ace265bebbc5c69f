"""Op-level profiler for the numpy autodiff engine.

The profiler is a context manager that, while active, patches the public
``Tensor`` op methods, ``Tensor.backward``, ``Module.__call__`` and the
registered optimizer ``step``/``zero_grad`` with thin timing wrappers, and
installs the per-node backward probe exposed by
:func:`repro.autodiff.tensor.set_backward_op_hook`.  All patches are
restored on exit, so a process that never profiles pays nothing and a
process that did profile returns to the unpatched classes.

Self-time accounting uses an explicit span stack: each closing span
subtracts the durations of the spans nested inside it, so a composite op
(``mean`` = ``sum`` + ``__truediv__``) or a module calling submodules is
charged only for its own work.  Summing self-times therefore attributes
wall-clock exactly once, which is what makes the ``>= 95%% coverage``
acceptance check meaningful.

Bit-identity: the wrappers call the original bound methods with unchanged
arguments and return their results untouched — a profiled fit computes
exactly the same floats as an unprofiled one (asserted in
``tests/profiling``).
"""

from __future__ import annotations

from time import perf_counter

from ..autodiff import tensor as _tensor_mod
from ..autodiff.tensor import Tensor
from ..nn.module import Module
from .report import OpStat, ProfileReport

__all__ = ["Profiler", "profile", "active_profiler"]

#: Every public differentiable Tensor method patched while profiling.
#: ``__radd__`` / ``__rmul__`` are class-dict aliases of ``__add__`` /
#: ``__mul__`` but are patched under their own names so reflected calls
#: show up as themselves.
_TENSOR_OPS = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
    "__matmul__", "__rmatmul__", "__getitem__",
    "exp", "log", "sqrt", "tanh", "sigmoid", "relu", "leaky_relu",
    "abs", "clip", "sum", "mean", "var", "max",
    "reshape", "transpose", "swapaxes", "unfold_time",
)

_ACTIVE: "Profiler | None" = None


def active_profiler() -> "Profiler | None":
    """The currently entered :class:`Profiler`, or ``None``."""
    return _ACTIVE


def _wrap_op(name: str, original):
    def profiled(*args, **kwargs):
        prof = _ACTIVE
        if prof is None:
            return original(*args, **kwargs)
        start = prof._begin()
        try:
            out = original(*args, **kwargs)
        except BaseException:
            prof._end("op", name, "forward", start, 0)
            raise
        nbytes = out._data.nbytes if isinstance(out, Tensor) else 0
        prof._end("op", name, "forward", start, nbytes)
        return out

    profiled.__name__ = name
    profiled.__qualname__ = f"Tensor.{name}"
    profiled.__wrapped__ = original
    return profiled


def _wrap_module_call(original):
    def profiled(self, *args, **kwargs):
        prof = _ACTIVE
        if prof is None:
            return original(self, *args, **kwargs)
        name = type(self).__name__
        start = prof._begin()
        try:
            out = original(self, *args, **kwargs)
        except BaseException:
            prof._end("module", name, "forward", start, 0)
            raise
        nbytes = out._data.nbytes if isinstance(out, Tensor) else 0
        prof._end("module", name, "forward", start, nbytes)
        return out

    profiled.__wrapped__ = original
    return profiled


def _wrap_backward(original):
    def profiled(self, grad=None):
        prof = _ACTIVE
        if prof is None:
            return original(self, grad)
        start = prof._begin()
        try:
            return original(self, grad)
        finally:
            prof._end("autodiff", "backward", "backward", start, 0)

    profiled.__wrapped__ = original
    return profiled


def _wrap_optimizer_method(name: str, original):
    def profiled(self, *args, **kwargs):
        prof = _ACTIVE
        if prof is None:
            return original(self, *args, **kwargs)
        start = prof._begin()
        try:
            return original(self, *args, **kwargs)
        finally:
            prof._end("optimizer", name, "optimizer", start, 0)

    profiled.__wrapped__ = original
    return profiled


class Profiler:
    """Records per-op / per-module wall-clock while entered.

    Parameters
    ----------
    trace:
        Keep individual span events for Chrome-trace export.  Aggregated
        stats are always collected; disabling the trace only drops the
        per-event timeline.
    max_events:
        Cap on retained trace events (overflow is counted, not stored).
    """

    def __init__(self, *, trace: bool = True, max_events: int = 200_000):
        self._trace = bool(trace)
        self._max_events = int(max_events)
        self._saved: list[tuple[type, str, object]] = []
        self._entered = False
        self.reset()

    def reset(self) -> None:
        """Drop all recorded data (not allowed while entered)."""
        if self._entered:
            raise RuntimeError("cannot reset() an active Profiler")
        # (kind, name, phase) -> [count, self_seconds, total_seconds, nbytes]
        self._stats: dict[tuple[str, str, str], list] = {}
        # phase name -> [count, seconds]
        self._phases: dict[str, list] = {}
        self._events: list[tuple[str, str, float, float]] = []
        self._dropped_events = 0
        self._stack: list[float] = []
        self._origin = 0.0

    # ------------------------------------------------------------------
    # Span bookkeeping (called from the patched methods)
    # ------------------------------------------------------------------
    def _begin(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def _end(self, kind: str, name: str, phase: str, start: float,
             nbytes: int) -> None:
        end = perf_counter()
        duration = end - start
        child_seconds = self._stack.pop()
        if self._stack:
            self._stack[-1] += duration
        key = (kind, name, phase)
        stat = self._stats.get(key)
        if stat is None:
            self._stats[key] = [1, duration - child_seconds, duration, nbytes]
        else:
            stat[0] += 1
            stat[1] += duration - child_seconds
            stat[2] += duration
            stat[3] += nbytes
        self._push_event(name, f"{kind}.{phase}", start, duration)

    def _add_span(self, kind: str, name: str, phase: str, start: float,
                  seconds: float, nbytes: int) -> None:
        """Record a pre-timed flat span (no nesting).

        Used by the trace-replay plan, which times its calls with one
        ``perf_counter`` read per call boundary and charges each gap —
        including the profiler's own bookkeeping for the previous span —
        to the op that follows it.  Replayed ops are raw numpy calls a
        few microseconds long, so per-span ``_begin``/``_end`` pairs
        would leave their own overhead unattributed and sink the
        coverage metric the replay loop is asserted against.
        """
        if self._stack:
            self._stack[-1] += seconds
        key = (kind, name, phase)
        stat = self._stats.get(key)
        if stat is None:
            self._stats[key] = [1, seconds, seconds, nbytes]
        else:
            stat[0] += 1
            stat[1] += seconds
            stat[2] += seconds
            stat[3] += nbytes
        self._push_event(name, f"{kind}.{phase}", start, seconds)

    def _record_backward_op(self, name: str, start: float, end: float,
                            nbytes: int) -> None:
        """Per-node probe installed via ``set_backward_op_hook``.

        Charges the enclosing ``backward`` span as a child, so the walk's
        own self-time is just graph traversal overhead.
        """
        seconds = end - start
        if self._stack:
            self._stack[-1] += seconds
        key = ("op", name, "backward")
        stat = self._stats.get(key)
        if stat is None:
            self._stats[key] = [1, seconds, seconds, nbytes]
        else:
            stat[0] += 1
            stat[1] += seconds
            stat[2] += seconds
            stat[3] += nbytes
        self._push_event(name, "op.backward", start, seconds)

    def _push_event(self, name: str, category: str, start: float,
                    duration: float) -> None:
        if not self._trace:
            return
        if len(self._events) >= self._max_events:
            self._dropped_events += 1
            return
        self._events.append((name, category, start, duration))

    # ------------------------------------------------------------------
    # Phases (coarse spans the coverage metric is measured against)
    # ------------------------------------------------------------------
    def add_phase(self, name: str, seconds: float,
                  start: float | None = None) -> None:
        """Record ``seconds`` of coarse phase ``name`` (e.g. one epoch)."""
        phase = self._phases.get(name)
        if phase is None:
            self._phases[name] = [1, seconds]
        else:
            phase[0] += 1
            phase[1] += seconds
        if start is not None:
            self._push_event(name, "phase", start, seconds)

    # ------------------------------------------------------------------
    # Context manager: patch / restore
    # ------------------------------------------------------------------
    def __enter__(self) -> "Profiler":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError(
                "a Profiler is already active in this process; profiling "
                "does not nest")
        self._origin = perf_counter()
        self._install()
        _ACTIVE = self
        self._entered = True
        _tensor_mod.set_backward_op_hook(self._record_backward_op)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        _tensor_mod.set_backward_op_hook(None)
        _ACTIVE = None
        self._entered = False
        self._restore()
        return False

    def _patch(self, owner: type, name: str, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _install(self) -> None:
        from ..optim.optimizer import Optimizer
        from ..optim.registry import OPTIMIZER_REGISTRY

        try:
            for name in _TENSOR_OPS:
                self._patch(Tensor, name,
                            _wrap_op(name, Tensor.__dict__[name]))
            self._patch(Tensor, "backward",
                        _wrap_backward(Tensor.__dict__["backward"]))
            self._patch(Module, "__call__",
                        _wrap_module_call(Module.__dict__["__call__"]))
            self._patch(Optimizer, "zero_grad",
                        _wrap_optimizer_method(
                            "zero_grad", Optimizer.__dict__["zero_grad"]))
            classes = {factory for factory in OPTIMIZER_REGISTRY.values()
                       if isinstance(factory, type)}
            for cls in sorted(classes, key=lambda c: c.__name__):
                if "step" in cls.__dict__:
                    self._patch(cls, "step",
                                _wrap_optimizer_method(
                                    f"{cls.__name__}.step",
                                    cls.__dict__["step"]))
        except BaseException:
            self._restore()
            raise

    def _restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def report(self, label: str | None = None) -> ProfileReport:
        """Snapshot the recorded data as a picklable :class:`ProfileReport`."""
        ops = [OpStat(kind, name, phase, count, self_s, total_s, nbytes)
               for (kind, name, phase), (count, self_s, total_s, nbytes)
               in self._stats.items()]
        origin = self._origin
        events = [(name, category, (start - origin) * 1e6, duration * 1e6)
                  for name, category, start, duration in self._events]
        return ProfileReport(
            ops=ops,
            phases={name: (count, seconds)
                    for name, (count, seconds) in self._phases.items()},
            events=events,
            dropped_events=self._dropped_events,
            label=label)


def profile(*, trace: bool = True, max_events: int = 200_000) -> Profiler:
    """Build a :class:`Profiler` for use as a context manager::

        with profile() as prof:
            loss = mse(model(inputs), targets)
            loss.backward()
        print(prof.report().render())
    """
    return Profiler(trace=trace, max_events=max_events)
