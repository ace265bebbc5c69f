"""Inverted dropout.

The paper trains every model with a dropout rate of 0.3 (section V-D).
Dropout is active only in ``train()`` mode and draws its masks from an
explicit generator so runs are reproducible.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..autodiff import Tensor
from .module import Module

__all__ = ["Dropout"]


class Dropout(Module):
    """Zero each element with probability ``p`` and rescale by ``1/(1-p)``."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng()

    def _draw_mask(self, shape: tuple[int, ...], dtype,
                   select=...) -> np.ndarray:
        """One inverted-dropout mask, advancing this layer's RNG stream.

        The draw covers all of ``shape``; ``select`` indexes the part that
        is returned.  Factored out so the trace JIT can redraw masks during
        replay from the *same* generator the eager forward would have
        used — a replayed epoch consumes exactly the random numbers its
        eager twin would.
        """
        keep = 1.0 - self.p
        return ((self.rng.random(shape) < keep)[select] / keep).astype(dtype)

    def forward(self, x: Tensor, *, draw_shape: tuple[int, ...] | None = None,
                select=...) -> Tensor:
        """Apply dropout to ``x``, a part ``select`` of a logical activation
        of ``draw_shape`` (by default all of ``x``): the mask is drawn at
        full size and indexed, so each element meets the draw, and the RNG
        stream advances as far, as in the full computation."""
        if not self.training or self.p == 0.0:
            return x
        draw = partial(self._draw_mask,
                       x.shape if draw_shape is None else draw_shape,
                       x.data.dtype, select)
        mask = Tensor(draw())
        # Trace annotation: the mask is *volatile* data, not structure —
        # replaying the recorded epoch must redraw it, never reuse it.
        mask._trace_src = ("volatile", draw)
        return x * mask

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"
