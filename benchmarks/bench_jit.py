"""Benchmark of the trace-capture JIT: replay vs the eager epoch loop.

Fits one synthetic individual twice — eager and with ``TrainerConfig.jit``
— asserting bitwise-identical losses and test scores (unconditional),
then compares steady-state per-epoch wall-clock: eager epochs against
replayed epochs (the first two jitted epochs capture the tape and pay the
one-time verify/compile cost, so they are excluded from the steady-state
median on both sides symmetrically).

The ISSUE target is a >=2x epoch-loop speedup over the eager fused-kernel
path.  The replay win is Python-dispatch elimination — one flat call list
over a preallocated arena instead of Tensor wrapping, graph wiring and a
topo walk per epoch — so how far past 2x a host lands depends on how
dispatch-bound the eager fit is:

* LSTM at EMA scale (tens of windows, 8-32 hidden units) runs hundreds
  of tiny ops per epoch: typically 2-2.5x.
* A3TGCN's ops are wider (S x V x H gcn matmuls), so the numpy kernels
  themselves bound the epoch: expect 1.5-1.9x.

Timing is an interleaved A/B: :data:`REPEATS` eager/jitted fit pairs run
back to back, alternating which side goes first, and each pair gives one
speedup (eager steady-state median epoch over replayed median epoch).
The reported speedup is the median over the pairs, printed with its
quartiles, so one slow fit on a shared host cannot decide the verdict.

The hard assertions are bit-identity plus a conservative speedup floor;
the >=2x target is always *reported*, and enforced under
``REPRO_BENCH_STRICT=1`` for the dispatch-bound LSTM regime (A3TGCN is
kernel-bound and keeps the floor, mirroring ``bench_stacked``'s strict
policy).

A memory section refits each model under ``tracemalloc``, eager and
jitted, and reports both peaks plus the sealed plan's arena sizes
(forward activations, pooled gradients against one buffer per node,
scratch).  The jitted peak must not exceed the eager one: capture 1 is
kept only as a compact signature, the verify epoch's eager gradients are
dropped, and gradient buffers are pooled by liveness.

Run standalone for the CI smoke: ``python benchmarks/bench_jit.py
--quick`` (few epochs, bit-identity + timing + memory report, no strict
target).  Both entry points write ``BENCH_jit.json`` at the repo root.
"""

import json
import os
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

SPEEDUP_FLOOR = 1.2    # replayed epochs vs eager epochs, any host
SPEEDUP_TARGET = 2.0   # ISSUE target, asserted only under REPRO_BENCH_STRICT
WARMUP_EPOCHS = 3      # skipped from the steady-state median on both sides
REPEATS = 7            # interleaved eager/jitted fit pairs per model

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_jit.json"


def _fit(model_name, jit, epochs, seq_len, values, adjacency, hidden):
    from repro.data.splits import split_windows
    from repro.models import ModelConfig, create_model
    from repro.training import Trainer, TrainerConfig
    from repro.training.callbacks import EpochTimer

    split = split_windows(values, seq_len, 0.8)
    model = create_model(model_name, values.shape[1], seq_len,
                         adjacency=adjacency,
                         config=ModelConfig(hidden_size=hidden), seed=0)
    trainer = Trainer(TrainerConfig(epochs=epochs, jit=jit))
    timer = EpochTimer()
    start = time.perf_counter()
    history = trainer.fit(model, split.train, callbacks=[timer])
    elapsed = time.perf_counter() - start
    test_mse = trainer.evaluate(model, split.test)
    losses = [e.loss for e in history.records]
    durations = [e.duration for e in history.records]
    return losses, test_mse, durations, elapsed, trainer.last_jit


def _traced_peak(*args) -> tuple[int, object]:
    """tracemalloc peak bytes of one ``_fit``, and the fit's ``last_jit``."""
    tracemalloc.start()
    try:
        jit = _fit(*args)[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, jit


def run_memory(model: str, args: tuple) -> dict:
    """Traced peaks of an eager and a jitted fit, and the jitted arena."""
    eager_peak, _ = _traced_peak(model, False, *args)
    jit_peak, jit = _traced_peak(model, True, *args)
    arena = dict(jit.plan.arena_bytes)
    mb = 1e6
    print(f"  traced peak            {eager_peak / mb:8.2f} MB eager / "
          f"{jit_peak / mb:8.2f} MB jitted")
    print("  arena                  " + ", ".join(
        f"{name} {size / mb:.2f} MB" for name, size in arena.items()))
    assert jit_peak <= eager_peak, \
        f"{model}: jitted peak {jit_peak} B > eager peak {eager_peak} B"
    return {"eager_peak_bytes": eager_peak, "jit_peak_bytes": jit_peak,
            "arena_bytes": arena}


def run_bench(model: str, epochs: int, seq_len: int = 2,
              num_variables: int = 6, time_points: int = 60,
              hidden: int = 8, strict: bool | None = None) -> dict:
    if strict is None:
        strict = os.environ.get("REPRO_BENCH_STRICT") == "1"
    rng = np.random.default_rng(0)
    values = rng.normal(size=(time_points, num_variables))
    adjacency = np.abs(np.corrcoef(values.T))

    args = (epochs, seq_len, values, adjacency, hidden)
    eager_epochs, replay_epochs, speedups = [], [], []
    for repeat in range(REPEATS):
        # Alternate which side runs first, so drift on the host lands on
        # both sides alike.
        order = (False, True) if repeat % 2 == 0 else (True, False)
        fits = {jit: _fit(model, jit, *args) for jit in order}
        eager_losses, eager_mse, eager_durations, eager_total, _ = fits[False]
        jit_losses, jit_mse, jit_durations, jit_total, jit = fits[True]
        # Bit-identity is unconditional: a faster-but-different replay is
        # a bug.
        assert jit_losses == eager_losses, f"{model}: jitted losses diverged"
        assert jit_mse == eager_mse, f"{model}: jitted test score diverged"
        assert jit.total_replays == epochs - 2, \
            f"{model}: expected replay from epoch 3 on, got {jit}"
        eager_epochs.append(statistics.median(eager_durations[WARMUP_EPOCHS:]))
        replay_epochs.append(statistics.median(jit_durations[WARMUP_EPOCHS:]))
        speedups.append(eager_epochs[-1] / replay_epochs[-1])

    speedup = statistics.median(speedups)
    quartiles = statistics.quantiles(speedups, n=4)[::2]
    eager_epoch = statistics.median(eager_epochs)
    replay_epoch = statistics.median(replay_epochs)

    print(f"\ntrace-capture JIT: {model}, {epochs} epochs, "
          f"seq_len={seq_len}, hidden={hidden}, {REPEATS} interleaved pairs")
    print(f"  eager epoch (median)   {eager_epoch * 1e3:8.3f} ms")
    print(f"  replayed epoch (median){replay_epoch * 1e3:8.3f} ms")
    print(f"  last fit               {eager_total:6.2f}s eager / "
          f"{jit_total:6.2f}s jitted")
    print(f"  fused chains: {len(jit.plan.fused_chains)}")
    met = "met" if speedup >= SPEEDUP_TARGET else "NOT met on this host"
    print(f"  target >= {SPEEDUP_TARGET:.0f}x epoch-loop speedup: "
          f"x{speedup:.2f}, quartiles x{quartiles[0]:.2f}-"
          f"x{quartiles[1]:.2f} ({met})")
    if strict:
        assert speedup >= SPEEDUP_TARGET, \
            f"strict mode: x{speedup:.2f} < x{SPEEDUP_TARGET:.0f}"
    return {"model": model, "epochs": epochs, "repeats": REPEATS,
            "eager_epoch_seconds": eager_epoch,
            "replay_epoch_seconds": replay_epoch,
            "speedup": speedup,
            "speedup_quartiles": quartiles,
            "fused_chains": len(jit.plan.fused_chains),
            "total_replays": jit.total_replays,
            "memory": run_memory(model, args)}


def _write_report(reports: list[dict]) -> None:
    payload = {
        "benchmark": "trace-capture JIT epoch-loop replay and memory",
        "target_speedup": SPEEDUP_TARGET,
        "floor_speedup": SPEEDUP_FLOOR,
        "results": reports,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {RESULT_PATH}")


def test_jit_epoch_loop_lstm():
    report = run_bench("lstm", epochs=60)
    _write_report([report])
    assert report["speedup"] >= SPEEDUP_FLOOR, \
        f"replay only x{report['speedup']:.2f} over eager epochs (median " \
        f"of {report['repeats']} interleaved pairs)"


def test_jit_epoch_loop_a3tgcn():
    # Wider (kernel-bound) ops; assert the floor and report the target.
    report = run_bench("a3tgcn", epochs=40, strict=False)
    assert report["speedup"] >= SPEEDUP_FLOOR, \
        f"replay only x{report['speedup']:.2f} over eager epochs (median " \
        f"of {report['repeats']} interleaved pairs)"


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: few epochs, bit-identity + timing "
                             "report only (no strict target)")
    parser.add_argument("--model", choices=("lstm", "a3tgcn", "both"),
                        default="both")
    parser.add_argument("--epochs", type=int, default=None,
                        help="epochs per fit (default: 60, or 12 with "
                             "--quick)")
    args = parser.parse_args(argv)
    epochs = args.epochs or (12 if args.quick else 60)
    models = ("lstm", "a3tgcn") if args.model == "both" else (args.model,)
    reports = [run_bench(model, epochs=epochs,
                         strict=False if args.quick or model != "lstm"
                         else None)
               for model in models]
    _write_report(reports)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
