"""Graph-builder registry: one uniform signature for every method.

Every registered builder — the paper's four static metrics, the three
extended metrics, and the random control — is callable as::

    get_graph_builder(name)(data, *, gdt=1.0, seed=None, **method_kwargs)

``gdt`` is the graph density threshold (applied via
:func:`~repro.graphs.sparsify.sparsify` for metric graphs, or as the edge
budget for random graphs) and ``seed`` derives the RNG for stochastic
methods (deterministic metrics accept and ignore it, so callers can thread
one signature through any method).  :func:`~repro.graphs.adjacency
.build_adjacency` is a thin front end over this registry.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .correlation import correlation_adjacency
from .dtw import dtw_adjacency
from .euclidean import euclidean_adjacency
from .extended import (cosine_adjacency, mutual_information_adjacency,
                       partial_correlation_adjacency)
from .glasso import graphical_lasso_adjacency
from .knn import knn_adjacency
from .random_graph import random_adjacency
from .sparsify import sparsify

__all__ = ["GRAPH_REGISTRY", "get_graph_builder", "register_graph_method"]

GRAPH_REGISTRY: dict[str, Callable[..., np.ndarray]] = {}


def register_graph_method(name: str, builder: Callable[..., np.ndarray], *,
                          overwrite: bool = False) -> None:
    """Register ``builder`` under ``name`` (refuses silent replacement).

    ``builder`` must follow the uniform keyword-only signature
    ``(data, *, gdt=1.0, seed=None, **method_kwargs)``.
    """
    if not overwrite and name in GRAPH_REGISTRY:
        raise ValueError(
            f"graph method {name!r} is already registered; pass "
            f"overwrite=True to replace it")
    GRAPH_REGISTRY[name] = builder


def get_graph_builder(name: str) -> Callable[..., np.ndarray]:
    """The uniform-signature builder registered under ``name``."""
    try:
        return GRAPH_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown graph method {name!r}; registered: "
            f"{sorted(GRAPH_REGISTRY)}") from None


def _uniform_metric_builder(name: str, metric: Callable) -> Callable:
    """Adapt a raw similarity metric to the uniform registry signature."""

    def build(data, *, gdt: float = 1.0, seed=None,
              **kwargs) -> np.ndarray:
        del seed  # deterministic metric; accepted for signature uniformity
        series = np.asarray(data, dtype=np.float64)
        return sparsify(metric(series, **kwargs), gdt)

    build.__name__ = build.__qualname__ = f"build_{name}"
    build.__doc__ = (f"Build a {name!r} graph: ``sparsify({metric.__name__}"
                     f"(data, **kwargs), gdt)``.")
    return build


def _build_random(data, *, gdt: float = 1.0, seed=None) -> np.ndarray:
    """Random control graph with a ``gdt``-sized edge budget."""
    if seed is None:
        raise ValueError("random graphs need an explicit seed")
    num_variables = np.asarray(data, dtype=np.float64).shape[1]
    max_edges = num_variables * (num_variables - 1) // 2
    num_edges = max(1, int(round(gdt * max_edges)))
    return random_adjacency(num_variables, num_edges,
                            np.random.default_rng(seed))


for _name, _metric in (
        ("euclidean", euclidean_adjacency),
        ("knn", knn_adjacency),
        ("dtw", dtw_adjacency),
        ("correlation", correlation_adjacency),
        ("cosine", cosine_adjacency),
        ("partial_correlation", partial_correlation_adjacency),
        ("graphical_lasso", graphical_lasso_adjacency),
        ("mutual_information", mutual_information_adjacency),
):
    register_graph_method(_name, _uniform_metric_builder(_name, _metric))
register_graph_method("random", _build_random)
del _name, _metric
