"""Lane-exact autodiff ops for cross-individual stacked training.

The stacked cohort executor (:mod:`repro.training.stacked`) trains ``K``
individuals at once by giving every model parameter a leading lane axis:
``(K, *shape)``.  Elementwise tensor ops are shape-blind, so they vectorize
across lanes bit-identically for free — but the *linear-algebra* ops do
not: one big GEMM over ``(K·S, F)`` would change the floating-point
reduction order relative to ``K`` independent solo GEMMs.  The ops here
therefore run **one GEMM per lane** with exactly the operand shapes,
strides and association order of the solo code path, and assemble the
results into the stacked layout.  The win of stacking is not inside the
GEMM — it is everything around it: one graph walk, one optimizer step,
one Python-level epoch loop for the whole stack.

Bit-exactness contract (asserted end-to-end in ``tests/training``):

* :func:`lane_matmul` mirrors ``Tensor.__matmul__``'s flattened-GEMM
  branch per lane — the same ``reshape(-1, F) @ W`` forward and the same
  two backward GEMMs, on operands with identical memory layout.
* :func:`lane_bias_add` accumulates the bias gradient *directly* in its
  own backward (``grad.sum`` over the lane's leading axes), mirroring how
  the solo broadcast-add accumulates into the bias leaf without any
  intermediate node.  Inserting a reshape node instead would reorder the
  bias's gradient accumulation across its uses, which is bitwise visible
  once a parameter is used three or more times (IEEE addition is
  commutative but not associative).
* :func:`lane_affine` creates a **fresh** ``swapaxes`` node per call,
  exactly as the solo code creates a fresh ``.T`` node per use of a
  weight — sharing one transposed weight across the step loop would flip
  the order in which the weight's per-step gradient contributions
  accumulate.  What is shared is the work that does not depend on the
  step: the T-GCN input stage (graph convolutions and the input halves
  of the gate affines, on column slices of the stacked weights) runs
  once over the distinct time rows, as in the solo cell.
* :func:`lane_propagate` mirrors the graph-propagation matmul branch
  (``(V, V) @ (..., V, C)``) per lane over a constant ``(K, V, V)``
  operator stack.

Batched lanes and the exactness probe
-------------------------------------
Every op issues its ``K`` per-lane GEMMs as one batched ``np.matmul`` on
``(K, m, n) @ (K, n, p)`` stacks, which dispatches one BLAS GEMM per 2-D
slice — the *same* GEMM, on slices with the same values and strides, that
a per-lane loop would issue — and its bias reduction as one middle-axis
``sum``.  That equivalence is a property of the host numpy/BLAS build,
not of IEEE arithmetic, so it is **probed at import time** over every
operand pattern these ops use (contiguous, transposed-view, column-slice,
float32 and float64) against explicit per-lane loops.  The verdict,
:data:`BATCHED_LANES`, gates eligibility rather than selecting a code
path: on a host that fails it, :func:`repro.training.stacked.lane_reason`
blocks every stack and the serving engine serves eagerly, so all work
runs the bitwise-correct solo path.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor

__all__ = ["BATCHED_LANES", "lane_matmul", "lane_bias_add", "lane_affine",
           "lane_propagate"]


def _probe_batched_exactness() -> bool:
    """True iff batched matmul/sum replay the per-lane loops bitwise.

    Covers the operand patterns the lane ops issue: plain stacked GEMM,
    transposed-view second operand (``weight.swapaxes``), transposed
    first operand (the grad-weight GEMM), column slices of a weight
    (the T-GCN halves, plain and transposed), and the bias middle-axis
    reduction — in both default dtypes, with non-round shapes so BLAS
    blocking kicks in where it would for real workloads.
    """
    rng = np.random.default_rng(20260807)
    lanes = 4
    # Both engine dtypes must be probed regardless of the current default:
    # the flag is computed once at import and training may switch dtypes.
    for dtype in (np.float32, np.float64):  # repro: noqa[REPRO005]
        for m, n, p in ((13, 7, 5), (57, 33, 17)):
            a = rng.normal(size=(lanes, m, n)).astype(dtype)
            b = rng.normal(size=(lanes, n, p)).astype(dtype)
            w = rng.normal(size=(lanes, p, n)).astype(dtype)
            if not np.array_equal(np.matmul(a, b),
                                  np.stack([a[k] @ b[k]
                                            for k in range(lanes)])):
                return False
            if not np.array_equal(np.matmul(a, w.swapaxes(-1, -2)),
                                  np.stack([a[k] @ w[k].T
                                            for k in range(lanes)])):
                return False
            # The right column half of a wider weight: a strided view
            # whose rows start off the allocation's alignment.
            half = rng.normal(size=(lanes, p, 2 * n)).astype(dtype)[..., n:]
            if not np.array_equal(np.matmul(a, half.swapaxes(-1, -2)),
                                  np.stack([a[k] @ half[k].T
                                            for k in range(lanes)])):
                return False
            g = rng.normal(size=(lanes, m, p)).astype(dtype)
            if not np.array_equal(np.matmul(g, half),
                                  np.stack([g[k] @ half[k]
                                            for k in range(lanes)])):
                return False
            if not np.array_equal(np.matmul(a.swapaxes(-1, -2), g),
                                  np.stack([a[k].T @ g[k]
                                            for k in range(lanes)])):
                return False
            r = rng.normal(size=(lanes, m, n, p)).astype(dtype)
            if not np.array_equal(r.sum(axis=(1, 2)),
                                  np.stack([r[k].sum(axis=(0, 1))
                                            for k in range(lanes)])):
                return False
    return True


#: Whether this host's numpy/BLAS build dispatches stacked ``np.matmul``
#: as one per-slice GEMM bitwise equal to an explicit per-lane loop.
BATCHED_LANES: bool = _probe_batched_exactness()


def lane_matmul(x: Tensor, wt: Tensor) -> Tensor:
    """Per-lane matmul ``out[k] = x[k] @ wt[k]`` over the leading lane axis.

    ``x`` is ``(K, ..., F_in)`` and ``wt`` is ``(K, F_in, F_out)`` —
    typically a fresh ``weight.swapaxes(-1, -2)`` node (see
    :func:`lane_affine`).  Forward and backward run the exact GEMMs of the
    solo ``(..., F_in) @ (F_in, F_out)`` matmul branch, once per lane,
    through one batched ``np.matmul``.
    """
    xd, wd = x.data, wt.data
    if xd.shape[0] != wd.shape[0]:
        raise ValueError(f"lane counts disagree: {xd.shape[0]} vs "
                         f"{wd.shape[0]}")
    if xd.shape[-1] != wd.shape[-2]:
        raise ValueError(f"lane_matmul got {xd.shape} @ {wd.shape}")
    lanes = xd.shape[0]
    in_f = xd.shape[-1]
    out_f = wd.shape[-1]
    out_shape = (lanes,) + xd.shape[1:-1] + (out_f,)
    out = np.matmul(xd.reshape(lanes, -1, in_f), wd).reshape(out_shape)

    def lane_matmul_backward(grad: np.ndarray) -> None:
        grad2 = grad.reshape(lanes, -1, out_f)
        if x.requires_grad:
            # wd.swapaxes is the strided view of the base weight rows,
            # exactly the layout the solo backward sees for b.T.
            x._accumulate(
                np.matmul(grad2, wd.swapaxes(-1, -2)).reshape(xd.shape))
        if wt.requires_grad:
            wt._accumulate(np.matmul(
                xd.reshape(lanes, -1, in_f).swapaxes(-1, -2), grad2))

    return Tensor._make(out, (x, wt), lane_matmul_backward)


def lane_bias_add(x: Tensor, bias: Tensor) -> Tensor:
    """Add a per-lane bias ``(K, F)`` to ``x`` of shape ``(K, ..., F)``.

    The bias gradient is accumulated here directly — per lane,
    ``grad[k].sum`` over every axis before the feature axis, which is
    precisely the ``_unbroadcast`` reduction the solo broadcast-add
    performs — so the bias leaf sees its per-use contributions at the
    same graph positions (and therefore in the same order) as solo.
    """
    xd, bd = x.data, bias.data
    if xd.shape[0] != bd.shape[0] or xd.shape[-1] != bd.shape[-1]:
        raise ValueError(f"lane_bias_add got {xd.shape} + {bd.shape}")
    lanes = xd.shape[0]
    out = xd + bd.reshape((lanes,) + (1,) * (xd.ndim - 2) + (bd.shape[-1],))
    batched_axes = tuple(range(1, xd.ndim - 1))

    def lane_bias_add_backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad)
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=batched_axes))

    return Tensor._make(out, (x, bias), lane_bias_add_backward)


def lane_affine(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Per-lane ``Linear``: ``out[k] = x[k] @ weight[k].T + bias[k]``.

    ``weight`` is the stacked ``(K, F_out, F_in)`` parameter, or a view
    of one (the T-GCN cell's column halves).  A fresh
    ``swapaxes(-1, -2)`` node is created per call, so a weight used
    several times per epoch (recurrent cells) accumulates its per-use
    gradient contributions through per-use transpose nodes in the same
    order the solo code's per-use ``.T`` nodes impose.
    """
    out = lane_matmul(x, weight.swapaxes(-1, -2))
    if bias is not None:
        out = lane_bias_add(out, bias)
    return out


def lane_propagate(operator: np.ndarray, x: Tensor) -> Tensor:
    """Per-lane graph propagation ``out[k] = operator[k] @ x[k]``.

    ``operator`` is a constant ``(K, V, V)`` stack (e.g. from
    :func:`repro.nn.graphcache.cached_stacked_adjacency`); ``x`` is
    ``(K, ..., V, C)``.  Forward and backward mirror the solo
    ``(V, V) @ (..., V, C)`` matmul branch (the flatten-to-one-GEMM
    trick) once per lane; the operator is never differentiated.
    """
    xd = x.data
    if operator.ndim != 3 or operator.shape[0] != xd.shape[0]:
        raise ValueError(f"operator must be (K, V, V) matching x lanes, "
                         f"got {operator.shape} for x {xd.shape}")
    if xd.shape[-2] != operator.shape[-1]:
        raise ValueError(f"lane_propagate got {operator.shape} @ {xd.shape}")
    lanes = xd.shape[0]
    batch_shape = xd.shape[1:-2]

    def _mix_batched(matrices: np.ndarray, operand: np.ndarray) -> np.ndarray:
        # moveaxis + C-order reshape copies element-for-element what the
        # solo matmul branch copies per lane, so each 2-D GEMM sees
        # identical operands; ascontiguousarray rebuilds the solo output
        # layout so downstream reductions reduce in the same memory order.
        moved = np.moveaxis(operand, -2, 1).reshape(
            lanes, operand.shape[-2], -1)
        mixed = np.matmul(matrices, moved)
        mixed = mixed.reshape(lanes, matrices.shape[-2], *batch_shape,
                              operand.shape[-1])
        return np.ascontiguousarray(np.moveaxis(mixed, 1, -2))

    out = _mix_batched(operator, xd)

    def lane_propagate_backward(grad: np.ndarray) -> None:
        x._accumulate(_mix_batched(operator.swapaxes(-1, -2), grad))

    return Tensor._make(out, (x,), lane_propagate_backward)
