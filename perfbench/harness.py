"""Measurement primitives shared by the benchmark workloads.

Nothing here imports numpy or the ``repro`` package, so the rules that
decide what the benchmark may report can be tested on their own:

* :func:`percentile` — nearest-rank percentiles that refuse to answer
  unless at least :data:`SUPPORT` samples lie beyond the percentile;
* :class:`Tracer` — in-memory spans (name, start, end, parent, args)
  with self-time arithmetic and a Chrome ``trace_event`` writer;
* :func:`drive_open_loop` — an open-loop load generator for anything
  shaped like :class:`repro.serving.InferenceEngine` (``submit`` /
  ``poll`` / ``flush`` and a ``stats["flushes"]`` counter), which times
  every request from the moment it was *due*, so a stall in the engine
  is charged to every request that arrived during it.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

#: Minimum number of samples that must lie beyond a reported percentile.
SUPPORT = 10


def percentile(samples, q: float):
    """Nearest-rank ``q``-th percentile, or ``None`` when unsupported.

    The value is the ``ceil(q/100 * n)``-th smallest sample; it is
    returned only when at least :data:`SUPPORT` samples rank above it.
    """
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < SUPPORT:
        return None
    return sorted(samples)[rank - 1]


def median(samples):
    """Plain median (``None`` for no samples); medians need no tail support."""
    if not samples:
        return None
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; nothing is written until :meth:`write_chrome`."""

    enabled = True

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: "list[Span]" = []
        self._stack: "list[int]" = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, **args):
        """Time the enclosed block; yields the span's ``args`` dict so the
        caller can attach what it learns from the call's result."""
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = self.clock()
        try:
            yield args
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(name, start, end, span_id, parent, args))

    def self_times(self) -> "dict[int, float]":
        """``span_id -> duration minus the part its children cover``."""
        children: "dict[int, list[Span]]" = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()),
                                key=lambda s: s.start):
                lo = max(child.start, cursor, span.start)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.span_id] = span.duration - covered
        return result

    def self_time_by_name(self) -> "dict[str, float]":
        """Total self time per span name."""
        self_times = self.self_times()
        totals: "dict[str, float]" = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) \
                + self_times[span.span_id]
        return totals

    def write_chrome(self, path) -> None:
        """Write the spans as Chrome ``trace_event`` complete events."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = []
        for span in self.spans:
            args = {"span_id": span.span_id, "parent": span.parent}
            args.update(span.args)
            events.append({"name": span.name, "ph": "X", "pid": 1, "tid": 1,
                           "ts": (span.start - origin) * 1e6,
                           "dur": span.duration * 1e6, "args": args})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)


class NullTracer:
    """Tracing off: ``span`` costs one call and records nothing."""

    enabled = False
    spans: "tuple[Span, ...]" = ()

    def __init__(self):
        self._context = nullcontext({})

    def span(self, name: str, **args):
        return self._context

    def self_time_by_name(self) -> "dict[str, float]":
        return {}


def span_cost(samples: int = 20000) -> float:
    """Seconds one recorded span adds, measured on a throwaway tracer."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("calibrate", request_id="r"):
            pass
    return (time.perf_counter() - start) / samples


# ----------------------------------------------------------------------
# Open-loop load generation
# ----------------------------------------------------------------------

class Phase:
    """Everything an open-loop phase observed, one list entry per request.

    Columns of floats, ints and strings rather than an object per request:
    the garbage collector does not track them, so a long phase does not
    grow the heap the collector has to walk while the engine is timed.
    """

    def __init__(self, name: str, arrivals, start: float):
        self.name = name
        self.start = start
        self.end = start
        self.identifiers = [identifier for _, identifier, _ in arrivals]
        self.windows = [window for _, _, window in arrivals]
        self.due = [start + offset for offset, _, _ in arrivals]
        count = len(arrivals)
        #: Index of the engine (version) each request was submitted to.
        self.engine = [0] * count
        self.sent = [None] * count
        #: Start / end of the engine call that returned each outcome.
        self.served_start = [None] * count
        self.done = [None] * count
        #: The served forecast, or ``None`` when the request failed.
        self.predictions = [None] * count
        #: Request index -> the failure record it got.
        self.failures = {}
        #: One entry per engine call that returned outcomes.
        self.call_start = []
        self.call_end = []
        self.call_outcomes = []
        #: Whether the call ran a flush (rather than rejecting at submit).
        self.call_flushed = []
        self.call_engine = []
        #: Total time spent inside engine calls, with or without outcomes.
        self.busy = 0.0
        #: ``engine index -> end time of its first outcome-returning call``.
        self.first_served = {}
        #: The engine serving when the phase ended (differs after rolls).
        self.final_engine = None

    def __len__(self) -> int:
        return len(self.due)

    def failed(self, k: int) -> bool:
        return self.predictions[k] is None

    @property
    def sent_count(self) -> int:
        return sum(t is not None for t in self.sent)

    @property
    def failed_count(self) -> int:
        return sum(p is None for p in self.predictions)

    @property
    def succeeded_count(self) -> int:
        return len(self) - self.failed_count

    def latencies(self) -> "list[float]":
        """Due time to outcome; a failed request misses any limit."""
        return [float("inf") if p is None else done - due
                for p, done, due in zip(self.predictions, self.done,
                                        self.due)]

    def lateness(self) -> "list[float]":
        """How late the generator sent each request."""
        return [sent - due for sent, due in zip(self.sent, self.due)]

    def queue_waits(self) -> "list[float]":
        """Due time to the start of the serving call, served requests only."""
        return [start - due for p, start, due in zip(
            self.predictions, self.served_start, self.due) if p is not None]

    def flush_times(self) -> "list[float]":
        return [end - start for start, end, flushed in zip(
            self.call_start, self.call_end, self.call_flushed) if flushed]


def poisson_offsets(rng, rate: float, duration: float) -> "list[float]":
    """Arrival offsets of a Poisson process; ``rng`` is a ``random.Random``."""
    offsets = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def drive_open_loop(name: str, engine, arrivals, windows, *, linger: float,
                    tracer=None, events=(), clock=time.monotonic,
                    sleep=time.sleep, engine_index: int = 0) -> Phase:
    """Send ``arrivals`` to ``engine`` on schedule, whatever it does.

    ``arrivals`` is a list of ``(offset_seconds, identifier, window)``
    sorted by offset; ``windows(identifier, window)`` returns the input
    array.  Request ``k`` is submitted with request id ``"r<k>"``.  The
    engine is polled whenever its oldest pending request has lingered
    ``linger`` seconds.  ``events`` is a list of ``(offset_seconds,
    action)``: at that time the current engine is flushed and
    ``action()`` must return the engine that serves from then on (a
    version roll); the action runs on this thread, so requests that fall
    due meanwhile wait — and are timed from their due time.

    Garbage left by whatever ran before is collected first, so the phase
    pays only for the collections its own work triggers.
    """
    tracer = tracer if tracer is not None else NullTracer()
    gc.collect()
    start = clock()
    phase = Phase(name, arrivals, start)
    pending = 0
    pending_since = None
    events = sorted(events, key=lambda event: event[0])
    next_event = 0
    stuck_since = None

    def call(kind, fn, *args, **kwargs):
        nonlocal pending, pending_since
        flushes = engine.stats["flushes"]
        with tracer.span(f"engine.{kind}") as span_args:
            call_start = clock()
            outcomes = fn(*args, **kwargs)
            call_end = clock()
            if tracer.enabled and outcomes:
                span_args["request_ids"] = [o.request_id for o in outcomes]
        phase.busy += call_end - call_start
        flushed = engine.stats["flushes"] != flushes
        if flushed:
            pending_since = None
        for outcome in outcomes:
            k = int(outcome.request_id[1:])
            if hasattr(outcome, "kind"):
                phase.failures[k] = outcome
            else:
                phase.predictions[k] = outcome.prediction
            phase.served_start[k] = call_start
            phase.done[k] = call_end
            pending -= 1
        if outcomes:
            phase.call_start.append(call_start)
            phase.call_end.append(call_end)
            phase.call_outcomes.append(len(outcomes))
            phase.call_flushed.append(flushed)
            phase.call_engine.append(engine_index)
            phase.first_served.setdefault(engine_index, call_end)
        if not pending:
            pending_since = None
        return flushed, call_end

    k = 0
    count = len(arrivals)
    while k < count or pending or next_event < len(events):
        now = clock()
        if next_event < len(events) and start + events[next_event][0] <= now:
            if pending:
                call("flush", engine.flush)
            engine = events[next_event][1]()
            engine_index += 1
            next_event += 1
            continue
        while k < count and phase.due[k] <= now:
            identifier = phase.identifiers[k]
            phase.engine[k] = engine_index
            phase.sent[k] = sent = clock()
            pending += 1
            _, now = call("submit", engine.submit, identifier,
                          windows(identifier, phase.windows[k]),
                          request_id=f"r{k}")
            if pending and pending_since is None:
                pending_since = sent
            k += 1
        if pending and now >= pending_since + linger:
            flushed, _ = call("poll", engine.poll)
            if flushed:
                stuck_since = None
                continue
            # The engine's clock has not seen the linger expire yet; if it
            # never does, flush rather than wait forever.
            stuck_since = stuck_since if stuck_since is not None else now
            if now - stuck_since > 1.0:
                call("flush", engine.flush)
                stuck_since = None
            else:
                sleep(1e-5)
            continue
        wake = []
        if k < count:
            wake.append(phase.due[k])
        if pending:
            wake.append(pending_since + linger)
        if next_event < len(events):
            wake.append(start + events[next_event][0])
        delay = min(wake) - clock() if wake else 0.0
        if delay > 0:
            sleep(delay)
    phase.end = clock()
    phase.final_engine = engine
    return phase
