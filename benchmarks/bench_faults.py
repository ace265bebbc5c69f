"""Benchmark of the fault-tolerance layer: overhead and recovery cost.

Two questions the scheduler rewrite must answer with numbers:

1. What does supervision cost when nothing fails?  A fault-free run with
   retries/timeout/on_error configured must return bit-identical results
   to the plain scheduler, and the wall-clock overhead of the supervised
   pool (polling, deadline tracking) must stay marginal.
2. What does recovery cost when cells do fail?  With deterministic
   injected faults, the run pays the failed attempts and the backoff —
   quantified here as wall-clock relative to the failure-free run.
"""

import time

from repro.training import (ExecutionPolicy, FaultPolicy, ParallelConfig,
                            enumerate_cells, inject_faults, run_cells)

SEQ_LEN = 2


def _cells(cohort, experiment_config):
    return enumerate_cells(
        cohort, "a3tgcn", SEQ_LEN, graph_method="correlation",
        keep_fraction=0.2,
        trainer_config=experiment_config.trainer_config(),
        model_config=experiment_config.model,
        base_seed=experiment_config.seed)


def test_fault_layer_overhead_when_healthy(cohort, experiment_config):
    """Supervision with no faults: bit-identical, marginal overhead."""
    experiment_config.apply_dtype()
    cells = _cells(cohort, experiment_config)

    start = time.perf_counter()
    plain = run_cells(cells,
                      ParallelConfig(execution=ExecutionPolicy(jobs=2)))
    base = time.perf_counter() - start

    start = time.perf_counter()
    supervised = run_cells(cells, ParallelConfig(
        execution=ExecutionPolicy(jobs=2),
        faults=FaultPolicy(retries=2, timeout=3600.0, on_error="collect")))
    guarded = time.perf_counter() - start

    print(f"\nfault-layer overhead ({len(cells)} cells, jobs=2): "
          f"plain {base:.2f}s, supervised {guarded:.2f}s "
          f"({(guarded / base - 1) * 100:+.1f}%)")
    assert [r.test_mse for r in supervised] == [r.test_mse for r in plain]
    # Deadline polling must not dominate; generous bound for small cells.
    assert guarded < base * 2 + 2.0, \
        f"supervision overhead too high: {base:.2f}s -> {guarded:.2f}s"


def test_recovery_cost_under_injected_faults(cohort, experiment_config):
    """Every other cell fails once: the run recovers, paying the retries."""
    experiment_config.apply_dtype()
    cells = _cells(cohort, experiment_config)

    start = time.perf_counter()
    healthy = run_cells(cells,
                        ParallelConfig(execution=ExecutionPolicy(jobs=2)))
    base = time.perf_counter() - start

    start = time.perf_counter()
    recovered = run_cells(cells, ParallelConfig(
        execution=ExecutionPolicy(jobs=2),
        faults=FaultPolicy(
            retries=1, retry_backoff=0.0,
            fault_injector=inject_faults("exception", every=2, times=1))))
    faulted = time.perf_counter() - start

    retried = sum(1 for index in range(len(cells))
                  if (index + 1) % 2 == 0)
    print(f"\nrecovery cost ({len(cells)} cells, {retried} faulted once, "
          f"jobs=2): healthy {base:.2f}s, with faults {faulted:.2f}s "
          f"(x{faulted / base:.2f})")
    # Flaky-infra retries replay the original seeds: bit-identical.
    assert [r.test_mse for r in recovered] == [r.test_mse for r in healthy]
