"""Self-tests of the benchmark harness: ``python -m pytest perfbench -q``."""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from harness import (SUPPORT, Tracer, drive_open_loop, median,  # noqa: E402
                     percentile)


class FakeClock:
    """A clock that only moves when something sleeps or works."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class Served:
    def __init__(self, request_id):
        self.request_id = request_id
        self.prediction = np.zeros(1)


class FakeEngine:
    """``InferenceEngine``'s queue semantics; every flush costs ``cost``
    seconds and flush number ``stall_flush`` costs ``stall`` more."""

    def __init__(self, clock, *, max_batch=4, linger=0.002, cost=0.0005,
                 stall_flush=None, stall=0.0):
        self.clock = clock
        self.max_batch = max_batch
        self.linger = linger
        self.cost = cost
        self.stall_flush = stall_flush
        self.stall = stall
        self.pending = []
        self.stats = {"flushes": 0}

    def submit(self, identifier, window, *, request_id):
        self.pending.append((request_id, self.clock()))
        if len(self.pending) >= self.max_batch:
            return self.flush()
        return []

    def poll(self):
        if self.pending and self.clock() - self.pending[0][1] >= self.linger:
            return self.flush()
        return []

    def flush(self):
        batch, self.pending = self.pending, []
        if not batch:
            return []
        self.stats["flushes"] += 1
        self.clock.now += self.cost
        if self.stats["flushes"] == self.stall_flush:
            self.clock.now += self.stall
        return [Served(request_id) for request_id, _ in batch]


def _drive(engine, clock, arrivals, **kwargs):
    return drive_open_loop("test", engine, arrivals, lambda i, w: None,
                           linger=engine.linger, clock=clock,
                           sleep=clock.sleep, **kwargs)


# ----------------------------------------------------------------------
# Percentile support
# ----------------------------------------------------------------------

def test_percentile_needs_support_beyond_it():
    samples = list(range(1000))
    assert percentile(samples, 99) == 989  # rank 990; 10 samples beyond
    assert percentile(samples[:999], 99) is None  # only 9 beyond
    assert percentile(list(range(20)), 50) == 9
    assert percentile(list(range(19)), 50) is None
    assert percentile([], 50) is None


def test_percentile_is_order_free_and_nearest_rank():
    samples = [5.0, 1.0, 3.0] * 10 + [100.0] * SUPPORT
    assert percentile(samples, 75) == 5.0


def test_median_has_no_support_rule():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0]) == 2.5
    assert median([]) is None


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

def test_self_time_subtracts_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("parent"):
        clock.sleep(1.0)
        with tracer.span("child"):
            clock.sleep(2.0)
            with tracer.span("grandchild"):
                clock.sleep(0.5)
        clock.sleep(2.0)
        with tracer.span("child"):
            clock.sleep(1.0)
        clock.sleep(3.5)
    spans = {(s.name, s.start): s for s in tracer.spans}
    parent = next(s for s in tracer.spans if s.name == "parent")
    assert parent.duration == pytest.approx(10.0)
    self_times = tracer.self_times()
    assert self_times[parent.span_id] == pytest.approx(6.5)
    first_child = spans[("child", 1.0)]
    assert first_child.parent == parent.span_id
    assert self_times[first_child.span_id] == pytest.approx(2.0)
    by_name = tracer.self_time_by_name()
    assert by_name == pytest.approx(
        {"parent": 6.5, "child": 3.0, "grandchild": 0.5})
    # Self times partition the root span's wall time.
    assert sum(by_name.values()) == pytest.approx(parent.duration)


def test_chrome_trace_carries_parents_and_request_ids(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("roll"):
        with tracer.span("engine.flush") as args:
            clock.sleep(0.001)
            args["request_ids"] = ["r1", "r2"]
    path = tmp_path / "trace.json"
    tracer.write_chrome(path)
    import json

    events = {e["name"]: e for e in json.loads(path.read_text())
              ["traceEvents"]}
    assert events["engine.flush"]["args"]["parent"] == \
        events["roll"]["args"]["span_id"]
    assert events["engine.flush"]["args"]["request_ids"] == ["r1", "r2"]
    assert events["engine.flush"]["dur"] == pytest.approx(1000.0)


def test_submit_and_flush_spans_share_request_ids():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    engine = FakeEngine(clock, max_batch=2)
    arrivals = [(0.001 * k, "a", 0) for k in range(4)]
    _drive(engine, clock, arrivals, tracer=tracer)
    flushed = [rid for s in tracer.spans
               for rid in s.args.get("request_ids", ())]
    assert sorted(flushed) == ["r0", "r1", "r2", "r3"]


# ----------------------------------------------------------------------
# Open-loop load generation
# ----------------------------------------------------------------------

def test_stall_is_charged_to_every_request_due_during_it():
    clock = FakeClock()
    stall = 0.0505
    engine = FakeEngine(clock, max_batch=4, linger=0.010, cost=0.0,
                        stall_flush=5, stall=stall)
    arrivals = [(0.001 * k, "a", 0) for k in range(200)]
    phase = _drive(engine, clock, arrivals)

    assert phase.sent_count == 200 and phase.failed_count == 0
    # Flush 5 runs when request r19 fills the batch at t=19 ms and ends
    # 50.5 ms later; the 50 requests due meanwhile are all sent late.
    stall_start = phase.start + 0.019
    stall_end = stall_start + stall
    delayed = [k for k, due in enumerate(phase.due)
               if stall_start + 1e-9 < due < stall_end]
    assert delayed == list(range(20, 70))
    latencies, lateness = phase.latencies(), phase.lateness()
    for k in delayed:
        assert phase.sent[k] == pytest.approx(stall_end, abs=1e-9)
        assert lateness[k] == pytest.approx(stall_end - phase.due[k],
                                            abs=1e-9)
        assert latencies[k] >= lateness[k]
    # Latency runs from the due time, not from the late send.
    for k in range(len(phase)):
        assert latencies[k] == pytest.approx(phase.done[k] - phase.due[k])
    # r16 waited 3 ms for its batch to fill, then sat through the stall.
    assert max(latencies) == pytest.approx(0.003 + stall, abs=1e-9)
    assert max(lateness) == pytest.approx(stall - 0.001, abs=1e-9)
    # Nothing else was late.
    assert all(lateness[k] == pytest.approx(0.0, abs=1e-9)
               for k in range(len(phase)) if k not in delayed)


def test_linger_flushes_a_partial_batch():
    clock = FakeClock()
    engine = FakeEngine(clock, max_batch=32, linger=0.002)
    phase = _drive(engine, clock, [(0.0, "a", 0)])
    assert phase.queue_waits() == [pytest.approx(0.002)]
    assert phase.latencies() == [pytest.approx(0.002 + engine.cost)]
    assert phase.call_flushed == [True] and phase.call_outcomes == [1]


def test_events_swap_engines_and_stall_traffic():
    clock = FakeClock()
    first = FakeEngine(clock, max_batch=8)
    second = FakeEngine(clock, max_batch=8)

    def roll():
        clock.sleep(0.030)
        return second

    arrivals = [(0.001 * k, "a", 0) for k in range(60)]
    phase = _drive(first, clock, arrivals, events=[(0.020, roll)])
    assert set(phase.engine) == {0, 1}
    assert phase.final_engine is second
    assert phase.failed_count == 0
    assert 1 in phase.first_served
    assert max(phase.lateness()) >= 0.029


def test_unknown_identifier_counts_as_failed():
    from repro.autodiff import get_default_dtype, set_default_dtype
    from repro.models import create_model
    from repro.serving import (CohortArtifact, InferenceEngine,
                               RequestFailure, build_shards)

    import serve

    previous = get_default_dtype()
    try:
        set_default_dtype("float32")
        model = create_model("lstm", 3, 2, seed=0)
        artifact = CohortArtifact(
            identifier="a", model_name="lstm", seq_len=2, num_variables=3,
            dtype="float32", state=model.state_dict())
        engine = InferenceEngine(build_shards([artifact]), max_batch_size=4,
                                 max_linger=0.001)
        window = np.zeros((2, 3), dtype=np.float32)
        arrivals = [(0.0, "a", 0), (0.0005, "nobody", 0), (0.001, "a", 0)]
        phase = drive_open_loop("t", engine, arrivals,
                                lambda identifier, index: window,
                                linger=0.001)
    finally:
        set_default_dtype(previous)
    assert (phase.sent_count, phase.succeeded_count,
            phase.failed_count) == (3, 2, 1)
    assert phase.identifiers[1] == "nobody" and list(phase.failures) == [1]
    assert isinstance(phase.failures[1], RequestFailure)
    assert phase.failures[1].kind == "exception"
    # A failed request misses any latency limit.
    latencies = phase.latencies()
    assert latencies[1] == float("inf")
    assert all(np.isfinite(latencies[k]) for k in (0, 2))
