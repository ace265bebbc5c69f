"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {fit-stacked,fit-eager,serve-roll}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program under test is imported
from ``src/`` of that checkout and nothing else; the seed is the only
source of the generated inputs.  One process, ``jobs=1``, BLAS threads
pinned to :data:`BLAS_THREADS`.

Human-readable lines go to stdout first (run header, per-phase counts,
every named end-to-end figure with its unit and sample count, what the
correctness gates checked); the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``; with ``--trace 1`` every layer call is wrapped in a
span, the metrics are the ``per_layer`` list, and the spans are written
as a Chrome ``trace_event`` file under ``.perfbench/``.

A failed correctness gate, a missing metric or a missing ``src/`` ends
the run with a non-zero exit code and no JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
WORKLOADS = ("fit-stacked", "fit-eager", "serve-roll")
#: Layers a workload never calls: their per-layer metrics read 0.
IDLE_LAYERS = {
    "fit-stacked": ("store.", "engine.", "loadgen."),
    "fit-eager": ("store.", "engine.", "loadgen."),
    "serve-roll": ("training.",),
}


class Context:
    """What a workload gets: its inputs' seed, its time budget, a tracer."""

    def __init__(self, workload, seed, seconds, tracer, workdir, import_s):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.import_s = import_s


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _import_program():
    """Import the program from this checkout's ``src/``; return the modules."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import repro

    location = Path(repro.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise ImportError(f"repro was imported from {location}, not from "
                          f"{ROOT / 'src'}")
    import fit
    import serve

    return fit, serve


def _header(args, import_s: float) -> "list[str]":
    import numpy
    import scipy

    threads = ", ".join(f"{var}={os.environ.get(var)}"
                        for var in THREAD_VARIABLES)
    return [
        f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
        f"trace {args.trace}",
        f"nproc {len(os.sched_getaffinity(0))} (one process, jobs=1); "
        f"{threads}",
        f"python {platform.python_version()} numpy {numpy.__version__} "
        f"scipy {scipy.__version__}; commit {_git_commit()}",
        f"imports {import_s:.3f} s",
    ]


def _metric(spec: dict, value) -> dict:
    if value is None:
        raise AssertionError(f"metric {spec['name']} was not measured")
    return {"value": float(value), "unit": spec["unit"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARIABLES:
        os.environ[var] = BLAS_THREADS
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    # Anything the program compiles or spills goes inside the checkout.
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = None
    try:
        start = time.monotonic()
        fit, serve = _import_program()
        import_s = time.monotonic() - start
        from harness import NullTracer, Tracer, span_cost

        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        for line in _header(args, import_s):
            print(line)
        tracer = Tracer() if args.trace else NullTracer()
        ctx = Context(args.workload, args.seed, args.seconds, tracer,
                      workdir, import_s)
        module = serve if args.workload == "serve-roll" else fit
        started = time.monotonic()
        result = module.run(ctx)
        wall = time.monotonic() - started
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for line in result["lines"]:
            print(line)
        if args.trace:
            layers = dict(result["layers"])
            layers["trace_overhead_frac"] = \
                len(tracer.spans) * span_cost() / wall
            path = ROOT / ".perfbench" / \
                f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write_chrome(path)
            print(f"trace: {len(tracer.spans)} spans -> "
                  f"{path.relative_to(ROOT)}")
            for spec in benchmark["per_layer"]:
                if spec["name"].startswith(IDLE_LAYERS[args.workload]):
                    layers.setdefault(spec["name"], 0.0)
            metrics = {spec["name"]: _metric(spec, layers.get(spec["name"]))
                       for spec in benchmark["per_layer"]}
        else:
            metrics = {spec["name"]: _metric(spec, result.get(spec["name"]))
                       for spec in benchmark["end_to_end"]}
    except Exception:  # noqa: BLE001 - report, exit non-zero, print no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
