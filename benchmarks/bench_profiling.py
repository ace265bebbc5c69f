"""Benchmark: the profiler-guided kernel optimizations.

The op-level profiler (:mod:`repro.profiling`) attributes the cohort
loop's wall-clock to three recurring costs beyond the model math itself:
re-deriving graph constants (adjacency normalization, Chebyshev bases,
MTGNN's static row normalization), the temporary-heavy per-parameter Adam
update, and ASTGCN's per-window-step Python loop over Chebyshev
convolutions — and, in MTGNN, to copying transposed activations around
its temporal convolutions and to computing window positions the forecast
never reads.  This benchmark measures each optimized kernel against the
path it replaced, asserts the replacements are *exact* (bit-identical
trajectories for the flat-buffer Adam against its per-parameter
reference loop, bit-identical outputs for the vectorized Chebyshev
convolution, the channels-last temporal convolution, the
receptive-field-pruned MTGNN forward and the cached constants), and
checks the combined hot path —
graph-constant construction plus an epoch budget of optimizer steps — is
at least ``KERNEL_TARGET`` times faster.  It also bounds what the
profiler costs when disabled.  Writes ``BENCH_kernels.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_profiling.py -s
    PYTHONPATH=src python benchmarks/bench_profiling.py --quick
"""

import gc
import json
import os
import time
import tracemalloc

import numpy as np

from repro.autodiff import Tensor, default_dtype, mse, stack
from repro.data.windows import make_windows
from repro.models import create_model
from repro.nn import ChebConv, DilatedInception
from repro.nn.graphcache import (cached_chebyshev_basis,
                                 cached_normalized_adjacency,
                                 cached_row_normalized, clear_graph_caches)
from repro.optim import Adam
from repro.optim.adam import _reference_step
from repro.training import Trainer, TrainerConfig
from repro.training.callbacks import CallbackSpec

V, L, T = 12, 5, 160
PAPER_V = 26            # the paper's cohorts have 26 EMA variables
EPOCHS = 30             # tiny-profile epoch budget, the smoke-run unit
KERNEL_TARGET = 1.5
OVERHEAD_TARGET_PCT = 1.0

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))


def _iters(full: int) -> int:
    return max(3, full // 10) if QUICK else full


def _series(seed=0):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal((T, V)), axis=0)
    return (x - x.mean(0)) / x.std(0)


def _adjacency(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return a


def _min_chunk_seconds(chunks, iters, body):
    """Min-over-chunks per-iteration CPU seconds of ``body(i)``."""
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(chunks):
            start = time.process_time()
            for i in range(iters):
                body(i)
            best = min(best, (time.process_time() - start) / iters)
    finally:
        gc.enable()
    return best


# ----------------------------------------------------------------------
# Individual kernels
# ----------------------------------------------------------------------
def _bench_graph_constants():
    """Cold construction vs cache hit for one paper-sized adjacency."""
    adj = _adjacency(PAPER_V, seed=1)

    def cold(_):
        clear_graph_caches()
        cached_chebyshev_basis(adj, 3)
        cached_normalized_adjacency(adj)
        cached_row_normalized(adj)

    def hit(_):
        cached_chebyshev_basis(adj, 3)
        cached_normalized_adjacency(adj)
        cached_row_normalized(adj)

    # Micro-kernels cost microseconds — full iteration counts stay cheap
    # even under --quick, and the min-over-chunks estimate needs them.
    cold_s = _min_chunk_seconds(3, 50, cold)
    clear_graph_caches()
    hit(0)  # prime
    hit_s = _min_chunk_seconds(3, 300, hit)

    # exactness: a hit returns the very arrays the cold build produced.
    clear_graph_caches()
    first = cached_chebyshev_basis(adj, 3)
    assert cached_chebyshev_basis(adj, 3) is first
    clear_graph_caches()
    return {"cold_seconds": cold_s, "hit_seconds": hit_s,
            "speedup": cold_s / hit_s}


def _grad_params(seed=1):
    model = create_model("a3tgcn", V, L,
                         adjacency=np.ones((V, V)) - np.eye(V), seed=seed)
    params = list(model.parameters())
    rng = np.random.default_rng(seed)
    for p in params:
        p.grad = rng.standard_normal(p.data.shape).astype(p.data.dtype) * 0.01
    return params


def _bench_fused_adam():
    """Adam's flat-buffer step vs the reference loop: speed + bit-identity.

    ``unfused_seconds`` times the per-parameter reference loop
    (``_reference_step``), ``fused_seconds`` times ``Adam.step``.
    """
    reference = Adam(_grad_params(), lr=0.01, weight_decay=1e-4)
    flat = Adam(_grad_params(), lr=0.01, weight_decay=1e-4)
    _reference_step(reference)
    flat.step()  # warmup: builds the flat update groups
    reference_s = _min_chunk_seconds(3, 300,
                                     lambda i: _reference_step(reference))
    flat_s = _min_chunk_seconds(3, 300, lambda i: flat.step())

    # Bit-identity over real training trajectories, with + without decay.
    windows = make_windows(_series(2), L)
    adj = _adjacency(V, seed=2)
    for weight_decay in (0.0, 1e-4):
        runs = {}
        for step in (_reference_step, Adam.step):
            model = create_model("a3tgcn", V, L, adjacency=adj, seed=3)
            optimizer = Adam(model.parameters(), lr=0.01,
                             weight_decay=weight_decay)
            model.train()
            losses = []
            for _ in range(_iters(20)):
                optimizer.zero_grad()
                loss = mse(model(Tensor(windows.inputs.astype(np.float32))),
                           windows.targets.astype(np.float32))
                loss.backward()
                step(optimizer)
                losses.append(loss.item())
            runs[step] = (losses, [p.data.copy() for p in model.parameters()])
        reference_run, flat_run = runs[_reference_step], runs[Adam.step]
        assert reference_run[0] == flat_run[0], \
            f"flat Adam losses drift (weight_decay={weight_decay})"
        assert all(np.array_equal(a, b) for a, b
                   in zip(reference_run[1], flat_run[1])), \
            f"flat Adam weights drift (weight_decay={weight_decay})"
    return {"unfused_seconds": reference_s, "fused_seconds": flat_s,
            "speedup": reference_s / flat_s}


def _bench_vectorized_cheb():
    """Batched window-steps ChebConv vs the per-step Python loop."""
    rng = np.random.default_rng(4)
    conv = ChebConv(1, 32, _adjacency(V, seed=4), order=3,
                    rng=np.random.default_rng(5))
    x = rng.standard_normal((64, V, 1, L)).astype(np.float32)
    s_att = rng.standard_normal((64, V, V)).astype(np.float32)

    def looped(_):
        steps = [conv(Tensor(x[:, :, :, t]), spatial_attention=Tensor(s_att))
                 for t in range(L)]
        return stack(steps, axis=3)

    def batched(_):
        out = conv(Tensor(np.ascontiguousarray(x.transpose(0, 3, 1, 2))),
                   spatial_attention=Tensor(s_att))
        return out.transpose(0, 2, 3, 1)

    assert np.array_equal(looped(0).data, batched(0).data), \
        "vectorized ChebConv must match the per-step loop exactly"
    looped_s = _min_chunk_seconds(3, _iters(20), looped)
    batched_s = _min_chunk_seconds(3, _iters(20), batched)
    return {"looped_seconds": looped_s, "batched_seconds": batched_s,
            "speedup": looped_s / batched_s}


def _nchw_conv(x, weight, bias, dilation, grad_out):
    """Causal ``(1, k)`` conv in torch's ``(B, C, N, T)`` layout, forward and
    backward, the way the layer computed it before it went channels-last.

    Pads the time axis, gathers ``(B, C, N, T, K)`` windows by fancy
    indexing, transposes them to ``(B, N, T, C, K)`` and copies them flat
    for one GEMM; the backward scatter-adds the window gradient tap by tap
    into a zeroed padded buffer.  Returns ``(out, grad_x, grad_weight)``.
    """
    b, c, n, t = x.shape
    o, _, k = weight.shape
    left = (k - 1) * dilation
    padded = np.pad(x, [(0, 0)] * 3 + [(left, 0)])
    idx = np.arange(t)[:, None] + dilation * np.arange(k)[None, :]
    flat = padded[..., idx].transpose(0, 2, 3, 1, 4).reshape(-1, c * k)
    kernel = weight.reshape(o, c * k).T
    out = (flat @ kernel).reshape(b, n, t, o) + bias
    grad2d = grad_out.transpose(0, 2, 3, 1).reshape(-1, o)
    grad_weight = (flat.T @ grad2d).T.reshape(o, c, k)
    grad_windows = (grad2d @ kernel.T).reshape(b, n, t, c, k)
    grad_windows = grad_windows.transpose(0, 3, 1, 2, 4)
    grad_padded = np.zeros_like(padded)
    for j in range(k):
        grad_padded[..., dilation * j:dilation * j + t] += grad_windows[..., j]
    return out.transpose(0, 3, 1, 2), grad_padded[..., left:], grad_weight


def _bench_temporal_conv():
    """MTGNN's inception conv, channels-last vs the NCHW im2col path.

    One forward+backward of ``DilatedInception(32, 32, (2, 3))`` at the
    paper's MTGNN shape — 100 windows, 32 channels, V=26, L=5, float32 —
    through the autodiff layer (one ``unfold_time`` copy and one GEMM per
    branch) against the plain-numpy NCHW reference.  Outputs, input
    gradients and weight gradients must be bitwise equal.
    """
    with default_dtype(np.float32):
        layer = DilatedInception(32, 32, kernel_sizes=(2, 3),
                                 rng=np.random.default_rng(8))
    rng = np.random.default_rng(9)
    x_nchw = rng.standard_normal((100, 32, PAPER_V, L)).astype(np.float32)
    x_last = np.ascontiguousarray(x_nchw.transpose(0, 2, 3, 1))
    grad_last = rng.standard_normal(x_last.shape).astype(np.float32)
    grad_nchw = np.ascontiguousarray(grad_last.transpose(0, 3, 1, 2))
    branch_channels = 32 // len(layer.branches)

    def reference(_):
        outs, grad_x, grad_weights = [], 0, []
        for i, branch in enumerate(layer.branches):
            rows = slice(i * branch_channels, (i + 1) * branch_channels)
            out, gx, gw = _nchw_conv(x_nchw, branch.weight.data,
                                     branch.bias.data, branch.dilation,
                                     grad_nchw[:, rows])
            outs.append(out)
            grad_x = grad_x + gx
            grad_weights.append(gw)
        return np.concatenate(outs, axis=1), grad_x, grad_weights

    def channels_last(_):
        layer.zero_grad()
        x = Tensor(x_last, requires_grad=True)
        out = layer(x)
        (out * Tensor(grad_last)).sum().backward()
        return out.data, x.grad, [b.weight.grad for b in layer.branches]

    ref_out, ref_gx, ref_gw = reference(0)
    new_out, new_gx, new_gw = channels_last(0)
    assert np.array_equal(new_out.transpose(0, 3, 1, 2), ref_out), \
        "channels-last inception conv output must match the NCHW path"
    assert np.array_equal(new_gx.transpose(0, 3, 1, 2), ref_gx), \
        "channels-last inception conv input grad must match the NCHW path"
    assert all(np.array_equal(a, b) for a, b in zip(new_gw, ref_gw)), \
        "channels-last inception conv weight grads must match the NCHW path"
    reference_s = _min_chunk_seconds(3, _iters(20), reference)
    channels_last_s = _min_chunk_seconds(3, _iters(20), channels_last)
    return {"nchw_seconds": reference_s,
            "channels_last_seconds": channels_last_s,
            "speedup": reference_s / channels_last_s}


def _full_window_mtgnn(model, inputs):
    """MTGNN's forward with every layer computing all ``L`` positions — the
    path the receptive-field-pruned forward replaced."""
    samples = inputs.shape[0]
    propagations = model._learned_propagations()
    x = inputs.transpose(2, 0, 1).reshape(
        model.num_variables, samples, model.seq_len, 1)
    skip = model.skip_start(x)
    x = model.start_conv(x)
    for layer in range(model.num_layers):
        residual = x
        filt = model.filter_convs[layer](x).tanh()
        gate = model.gate_convs[layer](x).sigmoid()
        x = model.dropout((filt * gate).transpose(1, 3, 0, 2)) \
            .transpose(2, 0, 3, 1)
        skip = skip + model.skip_convs[layer](x)
        x = model._graph_mix(x, layer, propagations)
        x = model.norms[layer](x + residual)
    skip = skip + model.skip_end(x)
    final = skip[:, :, -1].transpose(1, 0, 2)
    hidden = model.head_hidden(final.relu()).relu()
    return model.head_out(hidden).reshape(samples, model.num_variables)


def _peak_bytes(body) -> int:
    """Peak bytes traced (numpy buffers included) while ``body`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        body(0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bench_mtgnn_forward():
    """MTGNN fwd+bwd, receptive-field-pruned vs the full-window forward.

    The paper's MTGNN shape — V=26, 100 windows, L=5, hidden 32, float32,
    learned graph, train mode — one forward plus backward per iteration.
    With the same dropout RNG state the two outputs must be bitwise equal.
    Reports CPU ms and the peak bytes allocated per iteration.
    """
    with default_dtype(np.float32):
        model = create_model("mtgnn", PAPER_V, L,
                             adjacency=_adjacency(PAPER_V, seed=10), seed=11)
    model.train()
    rng = np.random.default_rng(12)
    inputs = Tensor(rng.standard_normal((100, L, PAPER_V)).astype(np.float32))
    targets = rng.standard_normal((100, PAPER_V)).astype(np.float32)
    state = model.dropout.rng.bit_generator.state

    def step(forward):
        def body(_):
            model.zero_grad()
            out = forward(inputs)
            mse(out, targets).backward()
            return out.data
        return body

    pruned = step(model)
    full = step(lambda x: _full_window_mtgnn(model, x))
    outputs = []
    for body in (pruned, full):
        model.dropout.rng.bit_generator.state = state
        outputs.append(body(0))
    assert np.array_equal(*outputs), \
        "pruned MTGNN forward must match the full-window forward bitwise"
    full_s = _min_chunk_seconds(3, _iters(20), full)
    pruned_s = _min_chunk_seconds(3, _iters(20), pruned)
    return {"full_window_ms": full_s * 1e3, "pruned_ms": pruned_s * 1e3,
            "speedup": full_s / pruned_s,
            "full_window_peak_bytes": _peak_bytes(full),
            "pruned_peak_bytes": _peak_bytes(pruned)}


def _bench_profiler_overhead():
    """Cost of the profiler machinery when *no* profiler is active.

    The only always-on instrumentation is one ``hook is None`` test per
    node in ``Tensor.backward`` (op wrappers are installed only while a
    profiler is entered).  Micro-timing that branch and scaling by the
    nodes-per-epoch of a real fit bounds the disabled-path overhead; a
    profiled vs unprofiled fit must also stay loss-bit-identical.
    """
    hook = None
    sink = []

    def guarded(i):
        if hook is None:
            sink
        else:  # pragma: no cover - hook stays None here
            sink.append(i)

    per_node_s = _min_chunk_seconds(5, 100_000, guarded)

    windows = make_windows(_series(6), L)
    adj = _adjacency(V, seed=6)
    config = TrainerConfig(epochs=_iters(EPOCHS))
    model = create_model("a3tgcn", V, L, adjacency=adj, seed=7)
    gc.collect()
    start = time.process_time()
    plain = Trainer(config).fit(model, windows)
    epoch_s = (time.process_time() - start) / config.epochs

    profiled_config = TrainerConfig(
        epochs=config.epochs, callbacks=(CallbackSpec.make("profiler"),))
    profiled = Trainer(profiled_config).fit(
        create_model("a3tgcn", V, L, adjacency=adj, seed=7), windows)
    assert plain.losses == profiled.losses, \
        "a profiled fit must be loss-bit-identical to an unprofiled one"
    assert profiled.profile is not None

    # Nodes per epoch: every recorded backward span is one node visit.
    nodes = sum(stat.count for stat in profiled.profile.ops
                if stat.phase == "backward") / config.epochs
    overhead_pct = per_node_s * nodes / epoch_s * 100.0
    return {"per_node_check_seconds": per_node_s,
            "backward_nodes_per_epoch": nodes,
            "seconds_per_epoch": epoch_s,
            "disabled_overhead_pct": overhead_pct,
            "profiled_coverage": profiled.profile.coverage()}


# ----------------------------------------------------------------------
# Headline
# ----------------------------------------------------------------------
def test_kernel_speedups():
    report = {"quick": QUICK, "epochs": EPOCHS}
    print()
    for name, bench in [("graph_constants", _bench_graph_constants),
                        ("fused_adam", _bench_fused_adam),
                        ("vectorized_cheb", _bench_vectorized_cheb),
                        ("temporal_conv", _bench_temporal_conv),
                        ("mtgnn_forward", _bench_mtgnn_forward),
                        ("profiler", _bench_profiler_overhead)]:
        report[name] = bench()
        line = ", ".join(f"{key}={value:.3g}" if isinstance(value, float)
                         else f"{key}={value}"
                         for key, value in report[name].items())
        print(f"  {name}: {line}")

    # Combined hot path of one smoke cell: build the graph constants once,
    # then run the epoch budget of optimizer steps.
    constants = report["graph_constants"]
    adam = report["fused_adam"]
    old_path = constants["cold_seconds"] + EPOCHS * adam["unfused_seconds"]
    new_path = constants["hit_seconds"] + EPOCHS * adam["fused_seconds"]
    report["kernel_path_speedup"] = old_path / new_path
    print(f"  kernel path (constants + {EPOCHS} optimizer steps): "
          f"x{report['kernel_path_speedup']:.2f} "
          f"(target >= x{KERNEL_TARGET})")

    assert report["kernel_path_speedup"] >= KERNEL_TARGET, \
        (f"cached-normalization + fused-Adam path speedup "
         f"x{report['kernel_path_speedup']:.2f} < x{KERNEL_TARGET}")
    assert report["vectorized_cheb"]["speedup"] > 1.0, \
        "vectorized ChebConv must not be slower than the per-step loop"
    assert report["temporal_conv"]["speedup"] > 1.0, \
        "channels-last temporal conv must not be slower than the NCHW path"
    assert report["mtgnn_forward"]["speedup"] > 1.0, \
        "pruned MTGNN forward must not be slower than the full window"
    assert report["profiler"]["disabled_overhead_pct"] < OVERHEAD_TARGET_PCT

    out_path = os.path.join(os.environ.get("REPRO_BENCH_OUT", "."),
                            "BENCH_kernels.json")
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"  wrote {out_path}")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI smoke)")
    cli_args = parser.parse_args()
    if cli_args.quick:
        QUICK = True
    test_kernel_speedups()
