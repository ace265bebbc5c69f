"""Adam optimizer — the paper trains every model with Adam at lr 0.01.

The update arithmetic lives in one kernel, :func:`_adam_update`, which
runs over flat ``(lanes, P)`` buffers: per dtype, every parameter that
carries a gradient owns a column block of one contiguous buffer, so a
step is ~13 ufunc calls per dtype instead of ~13 per parameter.  Solo
:class:`Adam` is the one-lane case; :class:`StackedAdam` stacks ``K``
individuals as lanes and adds a lane mask.  :func:`_reference_step` is
the textbook per-parameter loop, kept only as the bitwise oracle for
tests and benchmarks — no training path calls it.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..autodiff import no_grad
from ..nn.module import Parameter
from .optimizer import Optimizer

__all__ = ["Adam", "StackedAdam"]


def _adam_update(m, v, grad, data, a, b, *, lr, beta1, beta2, eps,
                 weight_decay, bias1, bias2) -> np.ndarray:
    """One Adam update over flat buffers; returns the step to subtract.

    ``m``/``v`` are updated in place; ``a``/``b`` are scratch of the same
    shape (the returned step is ``a``); ``data`` is read only under
    weight decay.  Every ufunc mirrors one op of :func:`_reference_step`
    (only bitwise-exact IEEE 754 commutations such as ``grad * (1 -
    beta1)`` for ``(1 - beta1) * grad``), and elementwise arithmetic is
    shape-blind, so each element is bit-identical to the reference loop.
    """
    if weight_decay:
        np.multiply(data, weight_decay, out=a)
        a += grad
        grad = a
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=b)
    m += b
    np.multiply(grad, 1.0 - beta2, out=b)
    b *= grad
    v *= beta2
    v += b
    np.divide(v, bias2, out=b)               # v_hat
    np.sqrt(b, out=b)
    b += eps
    np.divide(m, bias1, out=a)               # m_hat (grad dead)
    a *= lr
    a /= b
    return a


def _reference_step(optimizer: "Adam") -> None:
    """Step ``optimizer`` with the per-parameter reference loop.

    The bitwise oracle for the flat kernel (``tests/optim``,
    ``tests/training/test_stacked.py``, ``benchmarks/bench_profiling.py``).
    It reads and writes the optimizer's own step count and per-parameter
    moments, so a reference-stepped ``Adam`` is directly comparable with
    a flat-stepped twin.
    """
    optimizer._step_count += 1
    t = optimizer._step_count
    beta1, beta2 = optimizer.beta1, optimizer.beta2
    bias1 = 1.0 - beta1 ** t
    bias2 = 1.0 - beta2 ** t
    with no_grad():
        for p, m, v in zip(optimizer.parameters, optimizer._m,
                           optimizer._v):
            if p.grad is None:
                continue
            grad = p.grad
            if optimizer.weight_decay:
                grad = grad + optimizer.weight_decay * p.data
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= optimizer.lr * m_hat / (np.sqrt(v_hat) + optimizer.eps)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias-corrected moment estimates.

    Hyperparameters beyond ``lr`` are keyword-only (the unified optimizer
    signature shared with :class:`~repro.optim.sgd.SGD`).

    Each step gathers the gradients of all parameters (grouped by dtype)
    into one contiguous buffer and runs :func:`_adam_update` once over
    it; the per-parameter updates are views into the result.  The moment
    states ``_m``/``_v`` stay per-parameter arrays — views into the flat
    storage — so they remain inspectable.  Parameters without a gradient
    are skipped, and a change in which parameters carry one rebuilds the
    groups with the moments carried over.
    """

    #: Leading lane axis of every parameter; solo Adam is the one-lane case.
    lanes = 1

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.01,
                 *, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        #: (grad pattern, [group, ...]); built lazily at the first step
        #: and rebuilt when the set of parameters carrying gradients
        #: changes.
        self._flat = None

    def step(self) -> None:
        self._update(None)

    def _ensure_flat(self) -> list:
        """(Re)build the ``(lanes, P)`` update groups for the grad pattern.

        One group per dtype among the parameters that carry a gradient.
        Per-parameter views are column blocks ``flat[:, a:b]`` reshaped
        to the parameter's shape (valid views — each block is contiguous
        within its row), so the hot loop never re-slices.  ``_m``/``_v``
        are rebound to views carrying their current values over, so
        moment state survives pattern changes.
        """
        pattern = tuple(p.grad is not None for p in self.parameters)
        if self._flat is not None and self._flat[0] == pattern:
            return self._flat[1]
        by_dtype: dict = {}
        for i, p in enumerate(self.parameters):
            if p.grad is not None:
                by_dtype.setdefault(p.data.dtype.str, []).append(i)
        groups = []
        for indices in by_dtype.values():
            params = [self.parameters[i] for i in indices]
            sizes = [p.data.size // self.lanes for p in params]
            shape = (self.lanes, sum(sizes))
            dtype = params[0].data.dtype
            g = {name: np.empty(shape, dtype=dtype)
                 for name in ("m", "v", "grad", "data", "a", "b")}
            offset = 0
            slots = []
            for i, p, size in zip(indices, params, sizes):
                cols = slice(offset, offset + size)
                m, v, grad, data, a = (
                    g[name][:, cols].reshape(p.data.shape)
                    for name in ("m", "v", "grad", "data", "a"))
                np.copyto(m, self._m[i])
                np.copyto(v, self._v[i])
                self._m[i], self._v[i] = m, v
                slots.append((p, grad, data, a, cols))
                offset += size
            g["slots"] = slots
            groups.append(g)
        self._flat = (pattern, groups)
        return groups

    def _update(self, rows: np.ndarray | None) -> None:
        """Step every lane (``rows=None``) or only the given lane rows.

        A row subset is gathered into the leading rows of the scratch
        buffers, run through the same :func:`_adam_update`, and its
        moments and weight updates are scattered back; the weights and
        moments of other rows are never written, and their gradients
        never enter the arithmetic.
        """
        self._step_count += 1
        t = self._step_count
        hyper = dict(lr=self.lr, beta1=self.beta1, beta2=self.beta2,
                     eps=self.eps, weight_decay=self.weight_decay,
                     bias1=1.0 - self.beta1 ** t,
                     bias2=1.0 - self.beta2 ** t)
        with no_grad():
            for g in self._ensure_flat():
                slots = g["slots"]
                for p, grad_view, _, _, _ in slots:
                    np.copyto(grad_view, p.grad)
                if self.weight_decay:
                    for p, _, data_view, _, _ in slots:
                        np.copyto(data_view, p.data)
                if rows is None:
                    _adam_update(g["m"], g["v"], g["grad"], g["data"],
                                 g["a"], g["b"], **hyper)
                    for p, _, _, update_view, _ in slots:
                        p.data -= update_view
                    continue
                n = rows.size
                m, v = g["m"][rows], g["v"][rows]
                update = _adam_update(
                    m, v, g["grad"][rows],
                    g["data"][rows] if self.weight_decay else None,
                    g["a"][:n], g["b"][:n], **hyper)
                g["m"][rows] = m
                g["v"][rows] = v
                for p, _, _, _, cols in slots:
                    data = p.data
                    data[rows] -= update[:, cols].reshape(
                        (n,) + data.shape[1:])
                    p.data = data  # reassign to bump the version counter


class StackedAdam(Adam):
    """Adam over ``K`` independent parameter lanes stacked on axis 0.

    The stacked cohort executor (:mod:`repro.training.stacked`) trains
    ``K`` individuals at once by stacking each model parameter into one
    ``(K, *shape)`` array.  This is :class:`Adam` with ``K`` lanes: the
    same flat groups and the same :func:`_adam_update`, so each lane's row
    is bit-identical to what a per-individual :class:`Adam` would have
    produced.

    ``step(active=mask)`` freezes lanes: rows where ``mask`` is False are
    excluded from the update entirely — their weights *and* their moment
    state stay untouched, exactly as if that individual's solo fit had
    already returned.  The step count is global, which is equivalent to a
    per-lane count because every lane starts at step 0 and frozen lanes
    never resume: an active lane's global ``t`` always equals the solo
    ``t``.  (Gradients of frozen lanes may be garbage — NaN from a
    diverged forward — and are never read.)
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.01,
                 *, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters, lr, betas=betas, eps=eps,
                         weight_decay=weight_decay)
        lanes = {p.data.shape[0] for p in self.parameters}
        if len(lanes) != 1:
            raise ValueError(
                f"stacked parameters disagree on lane count: {sorted(lanes)}")
        self.lanes = lanes.pop()

    def step(self, active: np.ndarray | None = None) -> None:
        """Update all lanes, or only the rows where ``active`` is True."""
        if active is None:
            self._update(None)
            return
        active = np.asarray(active, dtype=bool)
        if active.shape != (self.lanes,):
            raise ValueError(f"active mask must have shape "
                             f"({self.lanes},), got {active.shape}")
        self._update(None if active.all() else np.flatnonzero(active))
