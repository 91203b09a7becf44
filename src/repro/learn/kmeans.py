"""K-means clustering (k-means++ initialization + Lloyd's algorithm).

The Dataset Enumerator's first job is to *clean* the user's example set
``D'`` by "identifying a self-consistent subset" (paper §2.2.2); one of
the two techniques the authors name is clustering. This module provides
the primitives: standardization, k-means, silhouette scoring for model
selection, and the dominant-cluster mask used by the cleaner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import LearnError


@dataclass(frozen=True)
class KMeansResult:
    """Fitted clustering: centers, hard assignments, and inertia."""

    centers: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int

    @property
    def k(self) -> int:
        """Number of clusters."""
        return len(self.centers)

    def cluster_sizes(self) -> np.ndarray:
        """Points per cluster."""
        return np.bincount(self.labels, minlength=self.k)


def standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z-score each column; zero-variance columns pass through centered.

    Returns ``(Z, mean, std)`` where ``std`` has zeros replaced by one.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise LearnError("standardize expects a 2-D array")
    mean = np.nanmean(X, axis=0) if len(X) else np.zeros(X.shape[1])
    std = np.nanstd(X, axis=0) if len(X) else np.ones(X.shape[1])
    std = np.where(std > 0, std, 1.0)
    return (X - mean) / std, mean, std


def kmeans(
    X: np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-7,
    n_init: int = 4,
) -> KMeansResult:
    """Cluster rows of ``X`` into ``k`` groups; best of ``n_init`` restarts."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise LearnError("kmeans expects a 2-D array")
    n = len(X)
    if k < 1:
        raise LearnError("k must be >= 1")
    if n < k:
        raise LearnError(f"cannot form {k} clusters from {n} points")
    rng = np.random.default_rng(seed)
    best: KMeansResult | None = None
    for _ in range(max(n_init, 1)):
        result = _kmeans_once(X, k, rng, max_iter, tol)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


def _kmeans_once(
    X: np.ndarray, k: int, rng: np.random.Generator, max_iter: int, tol: float
) -> KMeansResult:
    centers = _kmeanspp_init(X, k, rng)
    labels = np.zeros(len(X), dtype=np.int64)
    inertia = np.inf
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        distances = _pairwise_sq(X, centers)
        labels = np.argmin(distances, axis=1)
        new_inertia = float(distances[np.arange(len(X)), labels].sum())
        new_centers = centers.copy()
        for cluster in range(k):
            members = X[labels == cluster]
            if len(members):
                new_centers[cluster] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster at the point farthest from its center.
                farthest = int(np.argmax(distances[np.arange(len(X)), labels]))
                new_centers[cluster] = X[farthest]
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if abs(inertia - new_inertia) <= tol and shift <= tol:
            inertia = new_inertia
            break
        inertia = new_inertia
    return KMeansResult(centers=centers, labels=labels, inertia=inertia, n_iter=n_iter)


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(X)
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = X[first]
    closest_sq = _pairwise_sq(X, centers[:1]).ravel()
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All points coincide with chosen centers; pick randomly.
            pick = int(rng.integers(n))
        else:
            probabilities = closest_sq / total
            pick = int(rng.choice(n, p=probabilities))
        centers[i] = X[pick]
        new_sq = _pairwise_sq(X, centers[i: i + 1]).ravel()
        closest_sq = np.minimum(closest_sq, new_sq)
    return centers


def _pairwise_sq(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n_points, n_centers)."""
    diffs = X[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diffs, diffs)


#: Points scored by the silhouette; larger inputs are subsampled.
SILHOUETTE_MAX_POINTS = 512


def silhouette(X: np.ndarray, labels: np.ndarray,
               max_points: int = SILHOUETTE_MAX_POINTS, seed: int = 0) -> float:
    """Mean silhouette coefficient (subsampled beyond ``max_points``).

    Returns 0.0 when there are fewer than 2 clusters or 3 points, where
    the coefficient is undefined.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(np.unique(labels)) < 2 or len(X) < 3:
        return 0.0
    picks = _silhouette_picks(len(X), max_points, seed)
    if picks is not None:
        X = X[picks]
        labels = labels[picks]
    return _silhouette_score(_pairwise_distances(X), labels)


def _silhouette_picks(n: int, max_points: int, seed: int) -> np.ndarray | None:
    """The rows the silhouette scores (None = all); depends on n and seed only."""
    if n <= max_points:
        return None
    rng = np.random.default_rng(seed)
    return rng.choice(n, size=max_points, replace=False)


def _pairwise_distances(X: np.ndarray) -> np.ndarray:
    """Euclidean distances between all pairs of rows, shape (n, n)."""
    diffs = X[:, None, :] - X[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))


def _silhouette_score(distances: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette of points with all-pairs ``distances``."""
    unique = np.unique(labels)
    if len(unique) < 2:
        return 0.0
    n = len(labels)
    sizes = np.empty(len(unique), dtype=np.int64)
    # sums[i, j]: total distance from point i to the members of cluster j.
    # compress() gathers a C-contiguous block, so each row sum adds the
    # same elements in the same (pairwise) order as a per-point
    # ``distances[i][members].sum()``; the strided ``distances[:, members]``
    # would not, and differs from it by a few ULPs.
    sums = np.empty((n, len(unique)), dtype=np.float64)
    for j, cluster in enumerate(unique):
        members = labels == cluster
        sizes[j] = members.sum()
        sums[:, j] = distances.compress(members, axis=1).sum(axis=1)
    rows = np.arange(n)
    own = np.searchsorted(unique, labels)
    n_own = sizes[own]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[rows, own] / (n_own - 1)
        means = sums / sizes
        means[rows, own] = np.inf
        # Nearest other cluster; fmin skips NaN like a running builtin min.
        b = np.fmin.reduce(means, axis=1)
        denom = np.maximum(a, b)
        scores = np.where(denom == 0, 0.0, (b - a) / denom)
    scores[n_own <= 1] = 0.0
    return float(scores.mean())


def choose_k(
    X: np.ndarray, k_values: tuple[int, ...] = (2, 3, 4), seed: int = 0,
    min_silhouette: float = 0.5,
) -> int:
    """Pick k by silhouette; returns 1 when no clustering is convincing.

    A best silhouette below ``min_silhouette`` is read as "the data is one
    blob", which for D' cleaning means keep everything.
    """
    X = np.asarray(X, dtype=np.float64)
    return _choose_k(X, k_values, seed, min_silhouette)[0]


def _choose_k(
    X: np.ndarray, k_values: tuple[int, ...] = (2, 3, 4), seed: int = 0,
    min_silhouette: float = 0.5,
) -> tuple[int, KMeansResult | None]:
    """:func:`choose_k` plus the winning fit (None when k = 1).

    The silhouette subsample depends only on ``len(X)`` and ``seed``, so
    its distance matrix is built once and scored against every k.
    """
    best_k = 1
    best_score = min_silhouette
    best_fit: KMeansResult | None = None
    picks = _silhouette_picks(len(X), SILHOUETTE_MAX_POINTS, seed)
    distances: np.ndarray | None = None
    for k in k_values:
        if len(X) < max(k * 2, 3):
            continue
        result = kmeans(X, k, seed=seed)
        labels = result.labels if picks is None else result.labels[picks]
        if distances is None:
            distances = _pairwise_distances(X if picks is None else X[picks])
        score = _silhouette_score(distances, labels)
        if score > best_score:
            best_score = score
            best_k = k
            best_fit = result
    return best_k, best_fit


def dominant_cluster_mask(X: np.ndarray, seed: int = 0) -> np.ndarray:
    """The self-consistent-subset mask used to clean D'.

    Standardizes, picks k by silhouette, clusters, and keeps the largest
    cluster. If no multi-cluster structure is found (k = 1) every point is
    kept.
    """
    X = np.asarray(X, dtype=np.float64)
    if len(X) == 0:
        return np.zeros(0, dtype=bool)
    Z, __, __ = standardize(X)
    Z = np.nan_to_num(Z, nan=0.0)
    __, result = _choose_k(Z, seed=seed)
    if result is None:
        return np.ones(len(X), dtype=bool)
    sizes = result.cluster_sizes()
    dominant = int(np.argmax(sizes))
    return result.labels == dominant
