"""Scalar reference learners: parity oracles for the array fast paths.

``mdl_entropy_edges`` scores each MDL boundary with one scalar
``entropy`` call, and :class:`SubgroupOracle` runs the CN2-SD beam
search one (beam entry, condition) pair at a time with a fancy-index
weight sum per quality. Both are the straightforward loops the
production code in ``repro.learn.discretize`` and
``repro.learn.subgroup`` replaced, kept here unchanged; the parity
tests in ``test_learn_metrics.py`` and ``test_subgroup.py`` compare the
two. :class:`SubgroupOracle` inherits condition building and numeric
discretization from the production class, so it isolates the search.

``silhouette`` scores one point at a time, ``choose_k`` re-draws the
subsample and rebuilds its distance matrix for every k, and
``dominant_cluster_mask`` refits the winning k-means; they are the
model-selection loop ``repro.learn.kmeans`` replaced, kept unchanged for
the parity tests in ``test_kmeans_nb.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.db.predicate import Clause, Predicate
from repro.db.table import Table
from repro.errors import LearnError
from repro.learn.kmeans import kmeans, standardize
from repro.learn.metrics import entropy, wracc
from repro.learn.rules import Rule, dedupe_rules
from repro.learn.subgroup import SubgroupDiscovery, _Condition


def mdl_entropy_edges(
    values: np.ndarray, labels: np.ndarray, max_depth: int = 4
) -> list[float]:
    """Fayyad–Irani cut points, one scalar entropy pair per boundary."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if values.shape != labels.shape:
        raise LearnError("values and labels must have the same shape")
    keep = ~np.isnan(values)
    values = values[keep]
    labels = labels[keep]
    if len(values) == 0:
        return []
    order = np.argsort(values, kind="stable")
    values = values[order]
    labels = labels[order]
    edges: list[float] = []
    _mdl_recurse(values, labels, edges, max_depth)
    return sorted(edges)


def _mdl_recurse(
    values: np.ndarray, labels: np.ndarray, edges: list[float], depth: int
) -> None:
    if depth <= 0 or len(values) < 4:
        return
    n = len(values)
    pos_total = float(labels.sum())
    neg_total = float(n - pos_total)
    parent_entropy = entropy(pos_total, neg_total)
    if parent_entropy == 0.0:
        return
    # Candidate boundaries: positions where the value changes.
    change = np.flatnonzero(values[1:] != values[:-1]) + 1
    if len(change) == 0:
        return
    pos_cum = np.cumsum(labels.astype(np.float64))
    best_gain = -1.0
    best_split = -1
    best_stats: tuple[float, float, float, float] | None = None
    for split in change:
        left_pos = pos_cum[split - 1]
        left_neg = split - left_pos
        right_pos = pos_total - left_pos
        right_neg = neg_total - left_neg
        left_entropy = entropy(left_pos, left_neg)
        right_entropy = entropy(right_pos, right_neg)
        weighted = (split / n) * left_entropy + ((n - split) / n) * right_entropy
        gain = parent_entropy - weighted
        if gain > best_gain:
            best_gain = gain
            best_split = split
            best_stats = (left_pos, left_neg, right_pos, right_neg)
    if best_split < 0 or best_stats is None:
        return
    left_pos, left_neg, right_pos, right_neg = best_stats
    # MDL criterion (Fayyad & Irani 1993). Classes present in each part:
    k = 2 if 0 < pos_total < n else 1
    k_left = int(left_pos > 0) + int(left_neg > 0)
    k_right = int(right_pos > 0) + int(right_neg > 0)
    left_entropy = entropy(left_pos, left_neg)
    right_entropy = entropy(right_pos, right_neg)
    delta = (
        math.log2(3**k - 2)
        - (k * parent_entropy - k_left * left_entropy - k_right * right_entropy)
    )
    threshold = (math.log2(n - 1) + delta) / n
    if best_gain <= threshold:
        return
    cut = float((values[best_split - 1] + values[best_split]) / 2.0)
    edges.append(cut)
    _mdl_recurse(values[:best_split], labels[:best_split], edges, depth - 1)
    _mdl_recurse(values[best_split:], labels[best_split:], edges, depth - 1)


@dataclass
class _BeamEntry:
    clauses: tuple[Clause, ...]
    mask: np.ndarray
    quality: float
    #: (column, direction) pairs already used; direction is "le"/"gt" for
    #: numeric bounds and "eq" for categorical, so a rule may carry both
    #: bounds of a numeric interval but never two categorical values or two
    #: upper bounds on one column.
    slots: frozenset


class SubgroupOracle(SubgroupDiscovery):
    """CN2-SD with the per-(entry, condition) beam search."""

    def fit(
        self,
        table: Table,
        labels: np.ndarray,
        features: Sequence[str] | None = None,
        shared_edges: Mapping[str, Sequence[float]] | None = None,
    ) -> list[Rule]:
        """Discover up to ``n_rules`` subgroups of the positive class.

        ``shared_edges`` optionally supplies precomputed equal-frequency
        cut points per numeric column (e.g. from a
        :class:`~repro.core.preprocessor.PreprocessResult` shared across
        enumerator strategies); they replace the class-agnostic
        discretization this method would otherwise re-derive. Class-aware
        MDL cuts still adapt to ``labels``.
        """
        labels = np.asarray(labels, dtype=bool)
        if len(labels) != len(table):
            raise LearnError("labels length must match table length")
        if len(table) == 0 or not labels.any():
            return []
        if features is None:
            features = table.schema.names
        conditions = self._build_conditions(table, labels, features, shared_edges)
        if not conditions:
            return []
        weights = np.ones(len(table), dtype=np.float64)
        rules: list[Rule] = []
        emitted: set[Predicate] = set()
        for _ in range(self.n_rules):
            best = self._beam_search(conditions, labels, weights, emitted)
            if best is None or best.quality <= 0:
                break
            covered = best.mask
            n_covered = int(covered.sum())
            n_pos = int((covered & labels).sum())
            predicate = Predicate(best.clauses).simplify()
            if predicate is None:
                break
            emitted.add(predicate)
            rules.append(
                Rule(
                    predicate=predicate,
                    n_covered=float(n_covered),
                    n_pos_covered=float(n_pos),
                    quality=best.quality,
                    source="cn2sd",
                )
            )
            # Weighted covering: decay covered positives.
            decay = covered & labels
            weights[decay] *= self.gamma
            if weights[labels].sum() < 1e-9:
                break
        return dedupe_rules(rules)

    def _beam_search(
        self,
        conditions: list[_Condition],
        labels: np.ndarray,
        weights: np.ndarray,
        emitted: set[Predicate] | None = None,
    ) -> _BeamEntry | None:
        total_w = float(weights.sum())
        pos_w = float(weights[labels].sum())
        if pos_w <= 0:
            return None
        emitted = emitted or set()

        def quality_of(mask: np.ndarray) -> float:
            covered_w = float(weights[mask].sum())
            covered_pos_w = float(weights[mask & labels].sum())
            return wracc(total_w, pos_w, covered_w, covered_pos_w)

        def is_new(entry: _BeamEntry) -> bool:
            predicate = Predicate(entry.clauses).simplify()
            return predicate is not None and predicate not in emitted

        beam: list[_BeamEntry] = []
        best: _BeamEntry | None = None
        # Level 1: single conditions.
        for condition in conditions:
            mask = condition.mask
            if int(mask.sum()) < self.min_coverage or not (mask & labels).any():
                continue
            entry = _BeamEntry(
                clauses=(condition.clause,),
                mask=mask,
                quality=quality_of(mask),
                slots=frozenset([condition.slot]),
            )
            beam.append(entry)
        beam.sort(key=lambda e: -e.quality)
        beam = beam[: self.beam_width]
        for entry in beam:
            if is_new(entry):
                best = entry
                break
        # Deeper levels.
        for _ in range(1, self.max_conditions):
            children: list[_BeamEntry] = []
            seen: set[frozenset] = set()
            for entry in beam:
                for condition in conditions:
                    # One condition per (column, direction) slot: numeric
                    # columns can gain both an upper and a lower bound
                    # (forming an interval), categoricals only one value.
                    if condition.slot in entry.slots:
                        continue
                    if (condition.column, "eq") in entry.slots:
                        continue
                    mask = entry.mask & condition.mask
                    count = int(mask.sum())
                    if count < self.min_coverage or not (mask & labels).any():
                        continue
                    if count == int(entry.mask.sum()):
                        # The condition restricted nothing on this branch.
                        continue
                    clauses = entry.clauses + (condition.clause,)
                    key = frozenset(clauses)
                    if key in seen:
                        continue
                    seen.add(key)
                    children.append(
                        _BeamEntry(
                            clauses=clauses,
                            mask=mask,
                            quality=quality_of(mask),
                            slots=entry.slots | {condition.slot},
                        )
                    )
            if not children:
                break
            children.sort(key=lambda e: -e.quality)
            beam = children[: self.beam_width]
            for entry in beam:
                if is_new(entry) and (best is None or entry.quality > best.quality):
                    best = entry
                    break
        return best


def silhouette(X: np.ndarray, labels: np.ndarray, max_points: int = 512,
               seed: int = 0) -> float:
    """Mean silhouette coefficient (subsampled beyond ``max_points``).

    Returns 0.0 when there are fewer than 2 clusters or 3 points, where
    the coefficient is undefined.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    unique = np.unique(labels)
    if len(unique) < 2 or len(X) < 3:
        return 0.0
    if len(X) > max_points:
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(X), size=max_points, replace=False)
        X = X[picks]
        labels = labels[picks]
        unique = np.unique(labels)
        if len(unique) < 2:
            return 0.0
    diffs = X[:, None, :] - X[None, :, :]
    distances = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    scores = np.zeros(len(X))
    for i in range(len(X)):
        own = labels[i]
        own_mask = labels == own
        n_own = own_mask.sum()
        if n_own <= 1:
            scores[i] = 0.0
            continue
        a = distances[i][own_mask].sum() / (n_own - 1)
        b = np.inf
        for other in unique:
            if other == own:
                continue
            other_mask = labels == other
            b = min(b, distances[i][other_mask].mean())
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
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
    best_k = 1
    best_score = min_silhouette
    for k in k_values:
        if len(X) < max(k * 2, 3):
            continue
        result = kmeans(X, k, seed=seed)
        score = silhouette(X, result.labels, seed=seed)
        if score > best_score:
            best_score = score
            best_k = k
    return best_k


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
    k = choose_k(Z, seed=seed)
    if k <= 1:
        return np.ones(len(X), dtype=bool)
    result = kmeans(Z, k, seed=seed)
    sizes = result.cluster_sizes()
    dominant = int(np.argmax(sizes))
    return result.labels == dominant
