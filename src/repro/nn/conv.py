"""Temporal convolutions.

MTGNN's temporal module is a stack of dilated "inception" convolutions
applied along the time axis (PyTorch's ``Conv2d`` with ``kernel=(1, k)``).
Here every temporal convolution runs *channels-last*: input and output are
``(..., T, C)``, so the im2col windows come from one
:meth:`~repro.autodiff.Tensor.unfold_time` copy and the contraction is a
single GEMM over a contiguous view — no layer transposes its activations.
:class:`DilatedInception` combines several kernel widths as in the MTGNN
paper (scaled down to the kernel sizes the EMA paper uses).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..autodiff import Tensor, concat
from . import init
from .container import ModuleList
from .module import Module, Parameter

__all__ = ["TemporalConv2d", "DilatedInception", "TimeGrid"]


class TimeGrid(NamedTuple):
    """The time positions a temporal convolution reads and produces.

    ``stride``: the input holds every ``stride``-th logical step, so a
    convolution of dilation ``d`` (a multiple of ``stride``) taps
    ``d // stride`` positions apart on this compacted grid.  ``keep``:
    which positions of the output, on the same compacted grid, to
    compute; the others are never built.  The default grid is the whole
    axis.
    """

    stride: int = 1
    keep: slice = slice(None)


class TemporalConv2d(Module):
    """Convolution along the time axis of channels-last ``(..., T, C)`` input.

    Returns ``(..., T_out, out_channels)``; every leading axis (samples,
    nodes, in any order) is a batch axis.  On ``(B, N, T, C)`` input this
    equals ``torch.nn.Conv2d(c_in, c_out, kernel_size=(1, k),
    dilation=(1, d))`` applied to ``x.permute(0, 3, 1, 2)`` — torch's
    ``(B, C, N, T)`` layout — with the result permuted back by
    ``.permute(0, 2, 3, 1)``; the weight is stored in torch's
    ``(out, in, k)`` order (height axis squeezed).  ``causal_pad=True``
    left-pads so the output keeps the input's temporal length and never
    peeks at the future; without it, an input shorter than the receptive
    field is left-padded up to one window.  A :class:`TimeGrid` passed to
    ``forward`` runs the same convolution on a strided subset of the time
    axis and builds only the output positions it keeps.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 dilation: int = 1, causal_pad: bool = False,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if kernel_size < 1 or dilation < 1:
            raise ValueError("kernel_size and dilation must be >= 1")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        self.causal_pad = causal_pad
        self.weight = Parameter(
            init.xavier_uniform((out_channels, in_channels, kernel_size), rng))
        self.bias = Parameter(init.zeros(out_channels))

    def forward(self, x: Tensor, grid: TimeGrid = TimeGrid()) -> Tensor:
        if x.ndim < 2 or x.shape[-1] != self.in_channels:
            raise ValueError(
                f"TemporalConv2d expects (..., T, {self.in_channels}), "
                f"got {x.shape}")
        stride, keep = grid
        if self.dilation % stride:
            raise ValueError(
                f"dilation {self.dilation} is not a multiple of the input "
                f"grid stride {stride}")
        if self.kernel_size > 1:
            dilation = self.dilation // stride
            span = (self.kernel_size - 1) * dilation + 1
            left_pad = (span - 1 if self.causal_pad
                        else max(0, span - x.shape[-2]))
            # Documented fallback: temporal convs disable the JIT
            # (see ema-gnn check).
            x = x.unfold_time(self.kernel_size,  # repro: noqa[REPRO010]
                              dilation=dilation, left_pad=left_pad, keep=keep)
        elif keep != slice(None):
            x = x[..., keep, :]
        # A 1x1 convolution is a pure channel mix: its windows are x itself.
        kernel = self.weight.reshape(
            self.out_channels, self.in_channels * self.kernel_size).T
        return x @ kernel + self.bias


class DilatedInception(Module):
    """Parallel dilated temporal convolutions with concatenated outputs.

    MTGNN runs kernels {2, 3, 6, 7} in parallel and concatenates their
    outputs over channels.  Every branch here is causal-padded, so each
    keeps the input's temporal length and the branches line up without
    truncation.  The EMA paper's windows are at most 5 steps with kernel
    3, so we default to {2, 3} and split ``out_channels`` evenly across
    branches.  Input and output are channels-last ``(..., T, C)``.
    """

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_sizes: tuple[int, ...] = (2, 3), dilation: int = 1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if out_channels % len(kernel_sizes) != 0:
            raise ValueError("out_channels must divide evenly across kernel branches")
        rng = rng if rng is not None else np.random.default_rng()
        self.kernel_sizes = tuple(kernel_sizes)
        branch_channels = out_channels // len(kernel_sizes)
        self.branches = ModuleList(
            TemporalConv2d(in_channels, branch_channels, k, dilation=dilation,
                           causal_pad=True, rng=rng)
            for k in kernel_sizes)

    def forward(self, x: Tensor, grid: TimeGrid = TimeGrid()) -> Tensor:
        outputs = [branch(x, grid) for branch in self.branches]
        return concat(outputs, axis=-1)
