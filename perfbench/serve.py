"""serve-roll: open-loop forecast traffic over a versioned store, with rolls.

A store of 512 individuals in two shards (``lstm`` and ``a3tgcn``,
V=26, seq_len 5, float32, seeded-initialisation weights) is read with
``ModelStore.load_cohort`` and served by ``InferenceEngine``.  Arrivals
are open-loop Poisson; identifiers follow Zipf(1) popularity over a
seed-shuffled ranking; each request's window comes from its
individual's pool of windows cut from a synthetic EMA recording.

Phases, in this order:

* **steady** — a fixed rate (:data:`STEADY_RATE`, about half the highest
  rate that met the latency limit when the benchmark was written; fixed
  here, never derived at run time);
* **saturate** — requests all due at once, so every flush is full: the
  serving capacity, which the benchmark gates as ``throughput_per_s``;
* **roll** — the steady rate again; every :data:`ROLL_EVERY_S` seconds a
  new version changes 1/16 of the individuals and is rolled in on the
  serving thread: ``save_cohort`` → ``load_cohort`` → fresh engine → swap;
* **max-rate** — open-loop probes search for the highest offered rate
  whose p99 latency meets :data:`SLO_S` with no growing backlog;
* **saturate** again, on the last version.

Training does no work here; the store and the engine do all of it.
"""

from __future__ import annotations

import math
import random
import shutil
import time

import numpy as np

from repro.autodiff import set_default_dtype
from repro.data import (PreprocessingPipeline, SynthesisConfig,
                        generate_cohort, split_boundary)
from repro.graphs import build_adjacency
from repro.models import create_model
from repro.serving import CohortArtifact, InferenceEngine, ModelStore

from harness import drive_open_loop, median, percentile, poisson_offsets

NUM_INDIVIDUALS = 512
MODELS = ("lstm", "a3tgcn")
SEQ_LEN = 5
DTYPE = "float32"
#: Synthetic recordings the windows and graphs are cut from.
SOURCES = 64
#: Windows per individual.
POOL = 8
GDT = 0.2
MAX_BATCH = 32
LINGER_S = 0.002
#: Offered rate of the steady and roll phases (requests/s).
STEADY_RATE = 1500.0
#: p99 latency limit of the max-rate search.
SLO_S = 0.025
ROLL_EVERY_S = 2.0
#: Individuals whose weights change in each roll (1/16 of them).
CHANGED_PER_ROLL = NUM_INDIVIDUALS // 16
ZIPF_S = 1.0
#: Probes of the max-rate staircase and its rate steps.
PROBES = 8
COARSE_STEP = 1.25
FINE_STEP = 1.05
#: Least requests in a probe, so that its p99 is supported.
PROBE_MIN_REQUESTS = 1200
SETUP_REPS = 3
#: Shares of ``--seconds`` given to the steady, roll and max-rate phases.
STEADY_SHARE = 7 / 24
ROLL_PHASE_SHARE = 6 / 24
MAX_RATE_SHARE = 7 / 24
#: Requests of each saturate phase per second of ``--seconds``: the two
#: take about the remaining sixth of the run at ~5000 forecasts/s.
SATURATE_REQUESTS_PER_S = 400


class Cohort:
    """The served population: artifacts per generation plus window pools."""

    def __init__(self, seed: int, tracer):
        rng = np.random.default_rng([seed, 1])
        with tracer.span("data.generate_cohort"):
            raw = generate_cohort(SynthesisConfig(num_individuals=SOURCES,
                                                  seed=seed))
        with tracer.span("data.preprocess"):
            dataset, _ = PreprocessingPipeline(max_individuals=None).run(raw)
        sources = list(dataset)
        self.num_variables = dataset.num_variables
        graphs = []
        for source in sources:
            boundary = split_boundary(source.num_time_points, 0.7)
            with tracer.span("graphs.build_adjacency"):
                graphs.append(build_adjacency(
                    source.values[:boundary], "correlation", gdt=GDT,
                    seed=seed))
        self.identifiers = [f"u{i:04d}" for i in range(NUM_INDIVIDUALS)]
        self.model_of = {}
        self.adjacency = {}
        self.pools = {}
        for i, identifier in enumerate(self.identifiers):
            k = i % len(sources)
            values = sources[k].values
            starts = rng.integers(0, len(values) - SEQ_LEN + 1, size=POOL)
            self.pools[identifier] = np.stack(
                [values[s:s + SEQ_LEN] for s in starts]).astype(DTYPE)
            self.model_of[identifier] = MODELS[i % len(MODELS)]
            self.adjacency[identifier] = None \
                if self.model_of[identifier] == "lstm" \
                else graphs[k].astype(DTYPE)
        self.rng = rng
        #: identifier -> list of artifacts, one per generation.
        self.generations = {identifier: [self._artifact(identifier)]
                            for identifier in self.identifiers}

    def _artifact(self, identifier: str) -> CohortArtifact:
        set_default_dtype(DTYPE)
        model = create_model(self.model_of[identifier], self.num_variables,
                             SEQ_LEN, adjacency=self.adjacency[identifier],
                             seed=int(self.rng.integers(2**31)))
        return CohortArtifact(
            identifier=identifier, model_name=self.model_of[identifier],
            seq_len=SEQ_LEN, num_variables=self.num_variables, dtype=DTYPE,
            state=model.state_dict(), adjacency=self.adjacency[identifier],
            graph_method=None if self.adjacency[identifier] is None
            else "correlation", gdt=GDT,
            window_tail=self.pools[identifier][0],
            config_digest="perfbench")

    def prepare(self, changed) -> "dict[str, CohortArtifact]":
        """New weights for ``changed`` — the next version, not yet current."""
        return {identifier: self._artifact(identifier)
                for identifier in changed}

    def apply(self, prepared: "dict[str, CohortArtifact]") -> None:
        for identifier, artifact in prepared.items():
            self.generations[identifier].append(artifact)

    def current(self) -> "dict[str, int]":
        return {identifier: len(gens) - 1
                for identifier, gens in self.generations.items()}

    def latest(self) -> "list[CohortArtifact]":
        return [self.generations[identifier][-1]
                for identifier in self.identifiers]

    def window(self, identifier: str, index: int) -> np.ndarray:
        return self.pools[identifier][index]


def _publish(store: ModelStore, cohort: Cohort, tracer, stats: dict):
    """save → load → fresh engine; returns ``(engine, version id)``."""
    with tracer.span("store.save_cohort"):
        start = time.monotonic()
        version = store.save_cohort(cohort.latest())
        stats["save"].append(time.monotonic() - start)
    with tracer.span("store.load_cohort"):
        start = time.monotonic()
        shards = store.load_cohort(version)
        stats["load"].append(time.monotonic() - start)
    loaded = sum(len(shard) for shard in shards)
    stats["entries_loaded"] += loaded
    stats["degraded"] += NUM_INDIVIDUALS - loaded
    with tracer.span("engine.init"):
        engine = InferenceEngine(shards, max_batch_size=MAX_BATCH,
                                 max_linger=LINGER_S)
    return engine, version


def _warm(engine, cohort: Cohort, tracer) -> None:
    """Serve one request per individual so every model is materialised."""
    outcomes = []
    with tracer.span("engine.warmup"):
        for identifier in cohort.identifiers:
            outcomes += engine.submit(identifier, cohort.window(identifier, 0))
        outcomes += engine.flush()
    failed = [o for o in outcomes if hasattr(o, "kind")]
    if len(outcomes) != NUM_INDIVIDUALS or failed:
        raise AssertionError(f"warm-up pass failed: {failed[:3]}")


def _ranking(rng: random.Random, cohort: "Cohort") -> "list[str]":
    """Popularity ranking: shuffled within each shard, shards alternating,
    so every seed gives each shard the same share of the traffic."""
    per_model = []
    for model in MODELS:
        members = [i for i in cohort.identifiers
                   if cohort.model_of[i] == model]
        rng.shuffle(members)
        per_model.append(members)
    return [identifier for rank in zip(*per_model) for identifier in rank]


def _arrivals(rng: random.Random, ranking, rate: float, duration: float):
    weights = [1.0 / (k + 1) ** ZIPF_S for k in range(len(ranking))]
    offsets = poisson_offsets(rng, rate, duration)
    who = rng.choices(ranking, weights=weights, k=len(offsets))
    return [(offset, identifier, rng.randrange(POOL))
            for offset, identifier in zip(offsets, who)]


def _scaled(template, rate: float, duration: float):
    """The unit-rate ``template`` sped up to ``rate`` and cut at ``duration``:
    every probe replays the same sequence, so only the rate differs."""
    return [(offset / rate, identifier, window)
            for offset, identifier, window in template
            if offset < rate * duration]


def _probe_passes(phase) -> bool:
    """p99 within the SLO, and the last tenth not backed up past it."""
    latencies = phase.latencies()
    p99 = percentile(latencies, 99)
    tail = latencies[-max(1, len(latencies) // 10):]
    return p99 is not None and p99 <= SLO_S and median(tail) <= SLO_S


class _Setup:
    """One set-up: synthesis, first save and load, warm-up of every model."""

    def __init__(self, ctx, rep: int):
        tracer = ctx.tracer
        first_span = len(tracer.spans)
        start = time.monotonic()
        self.cohort = Cohort(ctx.seed, tracer)
        self.data_s = sum(span.duration for span in tracer.spans[first_span:]
                          if span.name.startswith("data."))
        self.store = ModelStore(ctx.workdir / f"store{rep}")
        self.engine, self.version = _publish(self.store, self.cohort, tracer,
                                             _store_stats())
        _warm(self.engine, self.cohort, tracer)
        self.seconds = time.monotonic() - start


def _store_stats() -> dict:
    return {"save": [], "load": [], "entries_loaded": 0, "degraded": 0}


def _max_rate(engine, engine_index, cohort, template, probe_s, tracer):
    """Staircase search for the highest offered rate that passes.

    Starting at twice the steady rate, each probe raises the rate after a
    pass and lowers it after a failure — by COARSE_STEP until the first
    reversal, by FINE_STEP after it.  The estimate is the geometric mean
    of the rates probed after the first reversal: the rate a probe passes
    at about half the time.  Averaging many short probes, rather than
    trusting the last few decisions of a bisection, keeps one stall of
    the host from deciding the result.
    """
    rate = 2 * STEADY_RATE
    step = COARSE_STEP
    last = None
    settled = []
    probes = []
    for _ in range(PROBES):
        duration = max(probe_s, PROBE_MIN_REQUESTS / rate)
        with tracer.span("loadgen.probe", rate=rate):
            phase = drive_open_loop(
                f"probe@{rate:.0f}", engine,
                _scaled(template, rate, duration), cohort.window,
                linger=LINGER_S, tracer=tracer, engine_index=engine_index)
        passed = _probe_passes(phase)
        probes.append((rate, passed, phase))
        if last is not None and passed != last:
            step = FINE_STEP
        if step == FINE_STEP:
            settled.append(rate)
        last = passed
        rate = rate * step if passed else rate / step
    if not settled:
        raise AssertionError(
            f"max-rate search never crossed the limit; last rate {rate:.0f}")
    return math.exp(sum(map(math.log, settled)) / len(settled)), probes


def _check_forecasts(phases, cohort: Cohort, engines) -> int:
    """Every served forecast equals its version's solo ``predict``, bitwise.

    Returns the number of forecasts checked; raises on the first mismatch.
    """
    models = {}
    expected = {}
    checked = 0
    for phase in phases:
        for k, prediction in enumerate(phase.predictions):
            if prediction is None:
                continue
            identifier = phase.identifiers[k]
            gen = engines[phase.engine[k]][identifier]
            key = (identifier, gen, phase.windows[k])
            if key not in expected:
                model = models.get(key[:2])
                if model is None:
                    model = models[key[:2]] = _solo(
                        cohort.generations[identifier][gen])
                window = cohort.window(identifier, phase.windows[k])
                expected[key] = model.predict(window[None])[0]
            if not np.array_equal(prediction, expected[key]):
                raise AssertionError(
                    f"{phase.name}: forecast for {identifier} "
                    f"(generation {gen}, window {phase.windows[k]}) differs "
                    f"from the solo predict of that version's model")
            checked += 1
    return checked


def _check_rolls(store: ModelStore, versions, changed_sets, cohort: Cohort,
                 engines) -> "tuple[int, int, int]":
    """Rolls wrote exactly the changed individuals and changed their bits.

    Returns ``(objects written, objects reused, bytes written)`` over all
    rolls, counted from the manifests (content addressing writes an
    object iff no earlier version holds the same payload).
    """
    known = {entry["object"]
             for entry in store.manifest(versions[0])["entries"]}
    written = reused = nbytes = 0
    for k, changed in enumerate(changed_sets, start=1):
        objects = {entry["identifier"]: entry["object"]
                   for entry in store.manifest(versions[k])["entries"]}
        fresh = {obj for obj in objects.values() if obj not in known}
        if len(fresh) != len(changed):
            raise AssertionError(
                f"roll {k}: {len(fresh)} objects written for "
                f"{len(changed)} changed individuals")
        previous = {entry["identifier"]: entry["object"]
                    for entry in store.manifest(versions[k - 1])["entries"]}
        moved = sorted(i for i in objects if objects[i] != previous.get(i))
        if moved != sorted(changed):
            raise AssertionError(
                f"roll {k}: objects changed for {moved[:4]}..., expected "
                f"exactly the {len(changed)} changed individuals")
        for identifier in changed:
            old = engines[k - 1][identifier]
            new = engines[k][identifier]
            if not _forecasts_differ(cohort, identifier, old, new):
                raise AssertionError(
                    f"roll {k}: {identifier} changed but forecasts the same "
                    f"bits as before")
        written += len(fresh)
        reused += len(objects) - len(fresh)
        nbytes += sum((store.objects_dir / f"{obj}.npz").stat().st_size
                      for obj in fresh)
        known |= fresh
    return written, reused, nbytes


def _solo(artifact: CohortArtifact):
    """The individual's model rebuilt from its in-memory artifact."""
    set_default_dtype(artifact.dtype)
    model = create_model(artifact.model_name, artifact.num_variables,
                         artifact.seq_len, adjacency=artifact.adjacency,
                         seed=0)
    model.load_state_dict(artifact.state)
    model.eval()
    return model


def _forecasts_differ(cohort: Cohort, identifier: str, old: int,
                      new: int) -> bool:
    window = cohort.window(identifier, 0)[None]
    old_out, new_out = (_solo(cohort.generations[identifier][gen])
                        .predict(window) for gen in (old, new))
    return not np.array_equal(old_out, new_out)


def _engine_metrics(steady, phases, stats: dict) -> dict:
    """Engine-layer metrics: flush times over every phase, the rest from
    the steady phase (``stats`` is the engine's counter delta over it)."""
    flushes = [t for phase in phases for t in phase.flush_times()]
    batched = sum(n for phase in phases for n, flushed in zip(
        phase.call_outcomes, phase.call_flushed) if flushed)
    waits = steady.queue_waits()
    lateness = steady.lateness()
    return {
        "engine.flush_ms_p50": _ms(median(flushes)),
        "engine.flush_ms_p99": _ms(percentile(flushes, 99)),
        "engine.flushes": len(flushes),
        "engine.batch_size_mean": batched / len(flushes),
        "engine.batched_frac": stats["batched"] / max(1, stats["served"]),
        "engine.queue_wait_ms_p50": _ms(median(waits)),
        "engine.queue_wait_ms_p99": _ms(percentile(waits, 99)),
        "engine.busy_frac": steady.busy / (steady.end - steady.start),
        "loadgen.late_ms_p99": _ms(percentile(lateness, 99)),
        "loadgen.late_ms_max": _ms(max(lateness)),
    }


def _ms(seconds):
    if seconds is None:
        raise AssertionError("a reported percentile lacks support")
    return seconds * 1e3


def _saturate(name, engine, engine_index, traffic, ranking, cohort, count,
              tracer):
    """``count`` requests all due at once: every flush is a full batch."""
    return drive_open_loop(
        name, engine,
        [(0.0, identifier, window) for _, identifier, window in
         _arrivals(traffic, ranking, 1.0, count)],
        cohort.window, linger=LINGER_S, tracer=tracer,
        engine_index=engine_index)


def run(ctx) -> dict:
    tracer = ctx.tracer
    setups = []
    for rep in range(SETUP_REPS):
        if setups:
            shutil.rmtree(setups[-1].store.root, ignore_errors=True)
        setups.append(_Setup(ctx, rep))
    setup = setups[-1]
    cohort, store = setup.cohort, setup.store
    setup_median = median([s.seconds for s in setups])

    traffic = random.Random(ctx.seed)
    ranking = _ranking(traffic, cohort)
    steady_s = STEADY_SHARE * ctx.seconds
    roll_phase_s = ROLL_PHASE_SHARE * ctx.seconds
    probe_s = MAX_RATE_SHARE * ctx.seconds / PROBES
    saturate_count = round(SATURATE_REQUESTS_PER_S * ctx.seconds)
    roll_count = max(1, int(roll_phase_s // ROLL_EVERY_S))
    changed_sets = [sorted(traffic.sample(cohort.identifiers,
                                          CHANGED_PER_ROLL))
                    for _ in range(roll_count)]
    prepared = [cohort.prepare(changed) for changed in changed_sets]
    #: generation map per engine index (index 0: the set-up engine).
    engines = [cohort.current()]
    versions = [setup.version]

    before = dict(setup.engine.stats)
    steady = drive_open_loop(
        "steady", setup.engine,
        _arrivals(traffic, ranking, STEADY_RATE, steady_s), cohort.window,
        linger=LINGER_S, tracer=tracer)
    steady_stats = {key: setup.engine.stats[key] - before[key]
                    for key in before}
    saturated = [_saturate("saturate", setup.engine, 0, traffic, ranking,
                           cohort, saturate_count, tracer)]

    roll_stats = _store_stats()
    roll_starts = []

    def roll():
        roll_starts.append(time.monotonic())
        cohort.apply(prepared[len(roll_starts) - 1])
        with tracer.span("roll"):
            engine, version = _publish(store, cohort, tracer, roll_stats)
        engines.append(cohort.current())
        versions.append(version)
        return engine

    rolling = drive_open_loop(
        "roll", setup.engine,
        _arrivals(traffic, ranking, STEADY_RATE, roll_phase_s),
        cohort.window, linger=LINGER_S, tracer=tracer,
        events=[(ROLL_EVERY_S * (k + 0.25), roll)
                for k in range(roll_count)])
    if len(roll_starts) != roll_count:
        raise AssertionError(f"{len(roll_starts)} of {roll_count} rolls ran")
    # A roll is over when traffic is served again: by its engine, or by a
    # later one if the next roll started first.
    roll_s = [min(end for engine, end in rolling.first_served.items()
                  if engine > k) - roll_starts[k] for k in range(roll_count)]
    # The first flush of each new engine pays the cold ``materialize``.
    first_flush = []
    for engine in sorted(rolling.first_served):
        if engine > 0:
            first_flush.append(next(
                end - start for start, end, index in zip(
                    rolling.call_start, rolling.call_end,
                    rolling.call_engine) if index == engine))

    final = rolling.final_engine
    _warm(final, cohort, tracer)
    max_rps, probes = _max_rate(
        final, roll_count, cohort,
        # Enough unit-rate arrivals for a probe at 16 × the steady rate.
        _arrivals(traffic, ranking, 1.0,
                  PROBE_MIN_REQUESTS + 16 * STEADY_RATE * probe_s),
        probe_s, tracer)
    saturated.append(_saturate("saturate", final, roll_count, traffic,
                               ranking, cohort, saturate_count, tracer))
    capacity = sum(len(p) for p in saturated) \
        / sum(p.end - p.start for p in saturated)

    phases = [steady, rolling] + [phase for _, _, phase in probes] \
        + saturated
    checked = _check_forecasts(phases, cohort, engines)
    written, reused, nbytes = _check_rolls(store, versions, changed_sets,
                                           cohort, engines)
    attempted = sum(len(p) for p in phases)
    failed = sum(p.failed_count for p in phases)

    lines = [f"setup: {len(setups)} set-ups, median {setup_median:.3f} s "
             f"+ imports {ctx.import_s:.3f} s"]
    for phase in phases:
        latencies = phase.latencies()
        p99 = percentile(latencies, 99)
        lines.append(
            f"phase {phase.name}: sent {phase.sent_count} succeeded "
            f"{phase.succeeded_count} failed {phase.failed_count}; latency "
            f"p50 {median(latencies) * 1e3:.2f} ms, p99 "
            + (f"{p99 * 1e3:.2f} ms" if p99 is not None else "unsupported")
            + f" (n={len(latencies)})")
    steady_lat = steady.latencies()
    roll_lat = rolling.latencies()
    named = {
        "forecast_p50_ms": (_ms(median(steady_lat)), "ms", len(steady_lat)),
        "forecast_p99_ms": (_ms(percentile(steady_lat, 99)), "ms",
                            len(steady_lat)),
        "forecast_max_rps": (max_rps, "1/s", len(probes)),
        "forecast_capacity_rps": (capacity, "1/s",
                                  sum(len(p) for p in saturated)),
        "roll_s": (median(roll_s), "s", len(roll_s)),
        "roll_forecast_p99_ms": (_ms(percentile(roll_lat, 99)), "ms",
                                 len(roll_lat)),
        "failed_frac": (failed / attempted, "fraction", attempted),
    }
    for name, (value, unit, n) in named.items():
        lines.append(f"{name}: {value:.6g} {unit} (n={n})")
    lines.append(f"correctness: {checked} forecasts bitwise equal to solo "
                 f"predict; {roll_count} rolls wrote exactly the changed "
                 f"individuals")

    layers = {}
    if tracer.enabled:
        self_times = tracer.self_time_by_name()
        layers = {
            "data.generate_s": median([s.data_s for s in setups]),
            "graphs.build_s": self_times.get("graphs.build_adjacency", 0.0)
            / len(setups),
            "graphs.builds": sum(span.name == "graphs.build_adjacency"
                                 for span in tracer.spans) // len(setups),
            "store.save_s": median(roll_stats["save"]),
            "store.objects_written": written,
            "store.objects_reused": reused,
            "store.bytes_written": nbytes,
            "store.load_s": median(roll_stats["load"]),
            "store.entries_loaded": roll_stats["entries_loaded"],
            "store.degraded_entries": roll_stats["degraded"],
            "engine.first_flush_ms": median(first_flush) * 1e3,
            "engine.served": sum(p.succeeded_count for p in phases),
            "engine.failed": failed,
        }
        layers.update(_engine_metrics(steady, phases, steady_stats))
    return {
        "setup_s": ctx.import_s + setup_median,
        "ok_frac": (attempted - failed) / attempted,
        "throughput_per_s": capacity,
        "attempted": attempted,
        "failed": failed,
        "layers": layers,
        "lines": lines,
    }
