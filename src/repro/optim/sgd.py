"""Stochastic gradient descent with classical momentum."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..autodiff import no_grad
from ..nn.module import Parameter
from .optimizer import Optimizer

__all__ = ["SGD"]


class SGD(Optimizer):
    """``v = momentum * v + grad; p -= lr * v`` with optional weight decay.

    Hyperparameters beyond ``lr`` are keyword-only (the unified optimizer
    signature shared with :class:`~repro.optim.adam.Adam`).
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.01,
                 *, momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        with no_grad():
            for p, velocity in zip(self.parameters, self._velocity):
                if p.grad is None:
                    continue
                grad = p.grad
                if self.weight_decay:
                    grad = grad + self.weight_decay * p.data
                if self.momentum:
                    velocity *= self.momentum
                    velocity += grad
                    grad = velocity
                p.data -= self.lr * grad
