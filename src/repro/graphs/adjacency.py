"""Unified graph-construction front end (the paper's Table I graph column).

``build_adjacency(series, method, ...)`` dispatches to the four static
similarity metrics plus the random control; ``GraphMethod`` enumerates the
names used throughout the experiments ("euclidean", "knn", "dtw",
"correlation", "random" — plus "learned", which is produced by MTGNN rather
than from data and therefore has no builder here).
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
from .registry import get_graph_builder

__all__ = ["STATIC_METHODS", "EXTENDED_METHODS", "build_adjacency", "GraphMethod"]


class GraphMethod:
    """Canonical names for graph conditions (mirrors the paper's notation)."""

    EUCLIDEAN = "euclidean"
    KNN = "knn"
    DTW = "dtw"
    CORRELATION = "correlation"
    RANDOM = "random"
    LEARNED = "learned"
    # Extended metrics (paper section VII-C, future work):
    COSINE = "cosine"
    PARTIAL_CORRELATION = "partial_correlation"
    GRAPHICAL_LASSO = "graphical_lasso"
    MUTUAL_INFORMATION = "mutual_information"

    #: Paper-style abbreviations for table rendering.
    LABELS = {
        EUCLIDEAN: "EUC",
        KNN: "kNN",
        DTW: "DTW",
        CORRELATION: "CORR",
        RANDOM: "RAND",
        LEARNED: "learned",
        COSINE: "COS",
        PARTIAL_CORRELATION: "PCORR",
        GRAPHICAL_LASSO: "GLASSO",
        MUTUAL_INFORMATION: "MI",
    }


STATIC_METHODS: dict[str, Callable[..., np.ndarray]] = {
    GraphMethod.EUCLIDEAN: euclidean_adjacency,
    GraphMethod.KNN: knn_adjacency,
    GraphMethod.DTW: dtw_adjacency,
    GraphMethod.CORRELATION: correlation_adjacency,
}

#: Future-work metrics (usable everywhere the paper's four are).
EXTENDED_METHODS: dict[str, Callable[..., np.ndarray]] = {
    GraphMethod.COSINE: cosine_adjacency,
    GraphMethod.PARTIAL_CORRELATION: partial_correlation_adjacency,
    GraphMethod.GRAPHICAL_LASSO: graphical_lasso_adjacency,
    GraphMethod.MUTUAL_INFORMATION: mutual_information_adjacency,
}


def build_adjacency(series: np.ndarray, method: str, *,
                    gdt: float = 1.0, seed: int | None = None,
                    **kwargs) -> np.ndarray:
    """Build a variable graph from an individual's ``(time, variables)`` data.

    Thin front end over the graph-builder registry
    (:func:`repro.graphs.registry.get_graph_builder`); every method shares
    the uniform keyword-only call form::

        build_adjacency(series, method, gdt=0.2, seed=7, **method_kwargs)

    Parameters
    ----------
    series:
        Individual EMA data, time on axis 0.
    method:
        Any registered method: ``euclidean | knn | dtw | correlation |
        cosine | partial_correlation | graphical_lasso |
        mutual_information | random``.
    gdt:
        Graph density threshold; applied after construction (default 1.0).
    seed:
        RNG seed for stochastic methods (``random``); deterministic
        metrics accept and ignore it.
    kwargs:
        Metric-specific options (``k`` for knn, ``window``/``bandwidth``
        for dtw, ``bandwidth`` for euclidean, ``shrinkage`` for
        partial_correlation, ``bins`` for mutual_information).
    """
    return get_graph_builder(method)(series, gdt=gdt, seed=seed, **kwargs)
