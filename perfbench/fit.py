"""fit-stacked / fit-eager: per-individual cohort fits at the paper's shape.

The cohort is the paper's: :func:`repro.data.generate_cohort` (269 raw
recordings) through :class:`repro.data.PreprocessingPipeline`, which keeps
100 individuals and V=26 items; float32, seq_len 5.  Every recording is
cut to its first :data:`BEEPS` beeps: the stacked backend stacks only
lanes of equal length, and ragged lengths would leave every stack with
one or two lanes.  The benchmark fits a fixed number of seed-shuffled
chunks of the cohort.  Each chunk builds the individuals' graphs with
:func:`repro.graphs.build_adjacency` (GDT 0.2) and fits every model of
the workload through ``enumerate_cells`` / ``run_cells`` under
``ExecutionPolicy(backend="stacked", stack_size=chunk)`` with
``TrainerConfig(jit=True)`` and a fixed epoch count.

* **fit-stacked** — ``lstm`` + ``a3tgcn`` on correlation graphs: every
  cell stacks and its epochs replay the traced tape.
* **fit-eager** — ``astgcn`` + ``mtgnn`` on DTW graphs (window 10): both
  models are statically blocked from the trace JIT and have no stacked
  forward, so every cell trains alone through eager autodiff.

Serving does no work here.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import replace

from repro.autodiff import set_default_dtype
from repro.data import (EMADataset, PreprocessingPipeline, SynthesisConfig,
                        generate_cohort, split_boundary)
from repro.graphs import build_adjacency
from repro.training import (CellFailure, ExecutionPolicy, FaultPolicy,
                            ParallelConfig, TrainerConfig, enumerate_cells,
                            run_cells, run_individual, stackable_reason)

from harness import median

SEQ_LEN = 5
DTYPE = "float32"
GDT = 0.2
EPOCHS = 10
#: Common recording length (beeps); shorter recordings are dropped.
BEEPS = 150
TRAIN_FRACTION = 0.7
SETUP_REPS = 3
#: Cells per model re-run through serial eager ``run_individual``.
GATE_SAMPLES = 1

#: ``chunks_per_s`` sizes the fixed work of a run: chunks per second of
#: ``--seconds``, about what a 2-vCPU host fits in that time.  A fixed
#: count keeps the first chunk's one-off costs the same share of every
#: run.  Stacks of 4 keep the stacked A3TGCN near 0.9 GB.
WORKLOADS = {
    "fit-stacked": {"models": ("lstm", "a3tgcn"), "method": "correlation",
                    "graph_kwargs": {}, "chunk": 4, "chunks_per_s": 1 / 3},
    "fit-eager": {"models": ("astgcn", "mtgnn"), "method": "dtw",
                  "graph_kwargs": {"window": 10}, "chunk": 1,
                  "chunks_per_s": 1 / 4.5},
}


def _setup(seed: int, tracer) -> "tuple[EMADataset, float]":
    """Synthesis + preprocessing; returns the cohort and the seconds taken."""
    start = time.monotonic()
    with tracer.span("data.generate_cohort"):
        raw = generate_cohort(SynthesisConfig(seed=seed))
    with tracer.span("data.preprocess"):
        dataset, _ = PreprocessingPipeline().run(raw)
        dataset = EMADataset([individual.with_values(individual.values[:BEEPS])
                              for individual in dataset
                              if individual.num_time_points >= BEEPS])
    return dataset, time.monotonic() - start


def _fit_chunk(individuals, spec: dict, seed: int, tracer, config,
               trainer_config) -> dict:
    """Build graphs and fit every model of the workload on one chunk."""
    chunk = {"graph_s": 0.0, "builds": 0, "model_s": {}, "cells": [],
             "results": []}
    graphs = {}
    for individual in individuals:
        boundary = split_boundary(individual.num_time_points, TRAIN_FRACTION)
        with tracer.span("graphs.build_adjacency"):
            start = time.monotonic()
            graphs[individual.identifier] = build_adjacency(
                individual.values[:boundary], spec["method"], gdt=GDT,
                seed=seed, **spec["graph_kwargs"])
            chunk["graph_s"] += time.monotonic() - start
        chunk["builds"] += 1
    dataset = EMADataset(list(individuals))
    for model in spec["models"]:
        cells = enumerate_cells(
            dataset, model, SEQ_LEN, graph_method=spec["method"],
            keep_fraction=GDT, graphs=None if model == "lstm" else graphs,
            trainer_config=trainer_config, train_fraction=TRAIN_FRACTION,
            base_seed=seed, graph_kwargs=spec["graph_kwargs"])
        with tracer.span(f"training.run_cells.{model}"):
            start = time.monotonic()
            results = run_cells(cells, config)
            chunk["model_s"][model] = time.monotonic() - start
        chunk["cells"] += cells
        chunk["results"] += results
    return chunk


def _check(cells, results, seed: int) -> int:
    """Finite scores everywhere; sampled cells bitwise equal to eager solo.

    Returns the number of cells re-run.
    """
    for cell, result in zip(cells, results):
        if isinstance(result, CellFailure):
            continue
        for score in (result.test_mse, result.train_mse):
            if not math.isfinite(score):
                raise AssertionError(f"{cell.label}: non-finite score {score}")
    picker = random.Random(seed)
    by_model = {}
    for cell, result in zip(cells, results):
        if not isinstance(result, CellFailure):
            by_model.setdefault(cell.model_name, []).append((cell, result))
    rerun = 0
    for model in sorted(by_model):
        for cell, result in picker.sample(by_model[model], GATE_SAMPLES):
            set_default_dtype(cell.dtype)
            solo = run_individual(
                cell.individual, cell.model_name, cell.seq_len,
                cell.graphs[0], graph_method=cell.graph_method,
                trainer_config=replace(cell.trainer_config, jit=False),
                model_config=cell.model_config,
                train_fraction=cell.train_fraction, seed=cell.seeds[0])
            if (solo.test_mse, solo.train_mse) != (result.test_mse,
                                                   result.train_mse):
                raise AssertionError(
                    f"{cell.label}: cohort fit gave test/train MSE "
                    f"{result.test_mse!r}/{result.train_mse!r}, serial eager "
                    f"run_individual gave {solo.test_mse!r}/"
                    f"{solo.train_mse!r}")
            rerun += 1
    return rerun


def run(ctx) -> dict:
    spec = WORKLOADS[ctx.workload]
    tracer = ctx.tracer
    set_default_dtype(DTYPE)
    setups = [_setup(ctx.seed, tracer) for _ in range(SETUP_REPS)]
    dataset = setups[-1][0]
    order = list(dataset)
    random.Random(ctx.seed).shuffle(order)

    trainer_config = TrainerConfig(epochs=EPOCHS, jit=True)
    config = ParallelConfig(
        execution=ExecutionPolicy(jobs=1, backend="stacked",
                                  stack_size=spec["chunk"]),
        faults=FaultPolicy(on_error="collect"))
    chunks = []
    measured = 0.0
    for index in range(max(2, round(spec["chunks_per_s"] * ctx.seconds))):
        members = [order[(index * spec["chunk"] + k) % len(order)]
                   for k in range(spec["chunk"])]
        with tracer.span("fit.chunk"):
            chunk = _fit_chunk(members, spec, ctx.seed, tracer, config,
                               trainer_config)
        measured += chunk["graph_s"] + sum(chunk["model_s"].values())
        chunks.append(chunk)

    cells = [cell for chunk in chunks for cell in chunk["cells"]]
    results = [result for chunk in chunks for result in chunk["results"]]
    failed = sum(isinstance(result, CellFailure) for result in results)
    rerun = _check(cells, results, ctx.seed)
    epochs = sum(EPOCHS for result in results
                 if not isinstance(result, CellFailure))
    rate = epochs / measured
    setup_median = median([seconds for _, seconds in setups])

    ok = [r for r in results if not isinstance(r, CellFailure)]
    model_s = {model: sum(chunk["model_s"][model] for chunk in chunks)
               for model in spec["models"]}
    # Times are mean self seconds per chunk.
    self_times = tracer.self_time_by_name()
    per_chunk = {name: seconds / len(chunks)
                 for name, seconds in self_times.items()}
    layers = {
        "data.generate_s": setup_median,
        "graphs.build_s": per_chunk.get("graphs.build_adjacency", 0.0),
        "graphs.builds": sum(chunk["builds"] for chunk in chunks),
        "training.run_cells_s": sum(
            per_chunk.get(f"training.run_cells.{model}", 0.0)
            for model in spec["models"]),
        "training.stackable_frac": sum(stackable_reason(cell) is None
                                       for cell in cells) / len(cells),
        "training.jit_replay_frac": sum(r.fallback_reason is None
                                        for r in ok) / len(cells),
        "training.cells": len(cells),
        "training.failed_cells": failed,
    }
    for model in ("lstm", "a3tgcn", "astgcn", "mtgnn"):
        layers[f"training.{model}_s"] = per_chunk.get(
            f"training.run_cells.{model}", 0.0)
    lines = [
        f"cohort: {len(dataset)} individuals, V={dataset.num_variables}, "
        f"T={BEEPS}, {DTYPE}, seq_len {SEQ_LEN}, {EPOCHS} epochs, "
        f"chunks of {spec['chunk']}",
        f"setup: {len(setups)} set-ups, median {setup_median:.3f} s + imports "
        f"{ctx.import_s:.3f} s",
        f"fit: {len(chunks)} chunks, {len(cells)} cells ({failed} failed), "
        f"{epochs} individual-model epochs in {measured:.3f} s "
        f"(graphs {sum(c['graph_s'] for c in chunks):.3f} s, "
        + ", ".join(f"{m} {s:.3f} s" for m, s in model_s.items()) + ")",
        f"fit_cell_epochs_per_s: {rate:.6g} 1/s (n={len(cells)} cells)",
        f"failed_frac: {failed / len(cells):.6g} fraction (n={len(cells)})",
        f"correctness: all scores finite; {rerun} sampled cells bitwise "
        f"equal to serial eager run_individual",
    ]
    return {
        "setup_s": ctx.import_s + setup_median,
        "ok_frac": (len(cells) - failed) / len(cells),
        "throughput_per_s": rate,
        "attempted": len(cells),
        "failed": failed,
        "layers": layers,
        "lines": lines,
    }
