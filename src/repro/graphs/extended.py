"""Extended similarity metrics (paper section VII-C, future work).

The paper's limitations section calls for "alternative types of distance
metrics" to be investigated.  This module adds three metrics with strong
standing in the EMA/network-psychometrics literature:

* **cosine** — scale-invariant angular similarity between series;
* **partial correlation** — the Gaussian Graphical Model estimator
  (Epskamp et al., cited by the paper as [13]): edge weights are direct
  conditional associations with all other variables partialled out,
  computed from a ridge-regularized precision matrix;
* **mutual information** — a nonlinear dependence measure estimated on a
  quantile-binned contingency table, capturing relationships Pearson
  correlation misses.

All three return symmetric, non-negative adjacencies with zero diagonals,
compatible with ``sparsify``/GDT and every GNN in the repo.
"""

from __future__ import annotations


import numpy as np

from .correlation import correlation_matrix

__all__ = ["cosine_adjacency", "partial_correlation_adjacency",
           "mutual_information_adjacency"]


def cosine_adjacency(series: np.ndarray) -> np.ndarray:
    """Absolute cosine similarity between variable series."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"series must be (time, variables), got {x.shape}")
    norms = np.linalg.norm(x, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    unit = x / safe
    sim = np.abs(unit.T @ unit)
    sim[norms == 0, :] = 0.0
    sim[:, norms == 0] = 0.0
    np.fill_diagonal(sim, 0.0)
    return np.clip(sim, 0.0, 1.0)


def partial_correlation_adjacency(series: np.ndarray, *,
                                  shrinkage: float = 0.1) -> np.ndarray:
    """Gaussian-graphical-model graph: absolute partial correlations.

    The correlation matrix is shrunk toward the identity
    (``(1-s) R + s I``) before inversion — the standard regularization for
    EMA's short series — and the precision matrix ``P`` is rescaled to
    partial correlations ``-P_ij / sqrt(P_ii P_jj)``.

    ``shrinkage`` is keyword-only (the registry's uniform builder
    signature).
    """
    if not 0.0 <= shrinkage < 1.0:
        raise ValueError(f"shrinkage must be in [0, 1), got {shrinkage}")
    corr = correlation_matrix(series)
    v = corr.shape[0]
    shrunk = (1.0 - shrinkage) * corr + shrinkage * np.eye(v)
    # A rank-deficient correlation matrix (guaranteed when V > T, EMA's
    # short-series regime) does not reliably raise from np.linalg.inv —
    # it can "invert" to garbage — so check definiteness explicitly.
    eigenvalues = np.linalg.eigvalsh(shrunk)
    if eigenvalues[0] <= v * np.finfo(np.float64).eps * max(eigenvalues[-1],
                                                            1.0):
        t = np.asarray(series).shape[0]
        raise ValueError(
            f"correlation matrix is singular and cannot be inverted "
            f"(V={v} variables, T={t} observations"
            f"{', V > T' if v > t else ''}, shrinkage={shrinkage}); "
            f"pass shrinkage > 0 to regularize the estimate, e.g. "
            f"shrinkage=0.1")
    precision = np.linalg.inv(shrunk)
    diag = np.sqrt(np.diag(precision))
    partial = -precision / np.outer(diag, diag)
    np.fill_diagonal(partial, 0.0)
    return np.clip(np.abs(partial), 0.0, 1.0)


def mutual_information_adjacency(series: np.ndarray, *,
                                 bins: int = 5) -> np.ndarray:
    """Pairwise mutual information on quantile-binned series, in [0, 1].

    MI is normalized by ``min(H_i, H_j)`` so the weights are comparable
    across variable pairs with different marginal entropies.

    ``bins`` is keyword-only (the registry's uniform builder signature).
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"series must be (time, variables), got {x.shape}")
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    t, v = x.shape
    if t < bins:
        raise ValueError(f"need at least {bins} time points, got {t}")
    # Quantile binning per variable (constant variables map to bin 0).
    digitized = np.zeros((t, v), dtype=np.intp)
    for j in range(v):
        col = x[:, j]
        if col.std() == 0:
            continue
        edges = np.quantile(col, np.linspace(0, 1, bins + 1)[1:-1])
        digitized[:, j] = np.searchsorted(edges, col, side="right")

    def entropy(counts: np.ndarray) -> float:
        p = counts / counts.sum()
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    marginal = np.array([entropy(np.bincount(digitized[:, j], minlength=bins))
                         for j in range(v)])
    adjacency = np.zeros((v, v))
    for i in range(v):
        for j in range(i + 1, v):
            joint = np.zeros((bins, bins))
            np.add.at(joint, (digitized[:, i], digitized[:, j]), 1.0)
            mi = marginal[i] + marginal[j] - entropy(joint)
            floor = min(marginal[i], marginal[j])
            value = mi / floor if floor > 0 else 0.0
            adjacency[i, j] = adjacency[j, i] = max(0.0, min(1.0, value))
    return adjacency
