"""Impurity, rule-quality, and classification metrics.

Everything operates on (optionally weighted) binary labels, which is all
DBWipes needs: the positive class is "suspicious input tuple", the
negative class is everything else in F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import LearnError


def gini_impurity(pos_weight: float, neg_weight: float) -> float:
    """Gini impurity of a weighted binary node: ``2 p (1 - p)``... computed as
    ``1 - p² - q²`` for the two-class case."""
    total = pos_weight + neg_weight
    if total <= 0:
        return 0.0
    p = pos_weight / total
    q = neg_weight / total
    return max(1.0 - p * p - q * q, 0.0)


def entropy(pos_weight: float, neg_weight: float) -> float:
    """Shannon entropy (bits) of a weighted binary node."""
    total = pos_weight + neg_weight
    if total <= 0:
        return 0.0
    out = 0.0
    for weight in (pos_weight, neg_weight):
        if weight > 0:
            p = weight / total
            out -= p * math.log2(p)
    return out


def entropy_vec(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Elementwise :func:`entropy` of nodes with ``pos`` of ``total`` weight.

    Agrees with the scalar function to ~1e-14 absolute, not bit for bit: the
    negative share is taken as ``1 - p`` and ``np.log2`` may round
    differently from ``math.log2``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(total > 0, pos / total, 0.0)
    out = np.zeros_like(p)
    for q in (p, 1.0 - p):
        positive = q > 0
        out[positive] -= q[positive] * np.log2(q[positive])
    return out


def split_info(left_weight: float, right_weight: float) -> float:
    """Entropy of the partition itself — the gain-ratio denominator."""
    total = left_weight + right_weight
    if total <= 0:
        return 0.0
    out = 0.0
    for weight in (left_weight, right_weight):
        if weight > 0:
            p = weight / total
            out -= p * math.log2(p)
    return out


def wracc(
    total_weight: float,
    pos_weight: float,
    covered_weight: float,
    covered_pos_weight: float,
) -> float:
    """Weighted relative accuracy of a rule (Lavrač et al., CN2-SD).

    ``WRAcc = coverage × (rule precision − base rate)``. Positive iff the
    rule's covered set is enriched in positives relative to the base rate;
    bounded by ``base_rate × (1 − base_rate)`` in magnitude.
    """
    if total_weight <= 0:
        raise LearnError("WRAcc requires positive total weight")
    if covered_weight <= 0:
        return 0.0
    coverage = covered_weight / total_weight
    precision = covered_pos_weight / covered_weight
    base_rate = pos_weight / total_weight
    return coverage * (precision - base_rate)


@dataclass(frozen=True)
class Confusion:
    """Binary confusion counts."""

    tp: float
    fp: float
    fn: float
    tn: float

    @property
    def accuracy(self) -> float:
        """Fraction of correct predictions."""
        total = self.tp + self.fp + self.fn + self.tn
        return (self.tp + self.tn) / total if total else 0.0

    @property
    def precision(self) -> float:
        """tp / (tp + fp); 0 when nothing was predicted positive."""
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        """tp / (tp + fn); 0 when there are no positives."""
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p = self.precision
        r = self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def confusion(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    sample_weight: np.ndarray | None = None,
) -> Confusion:
    """Weighted binary confusion counts from boolean/0-1 arrays."""
    y_true = np.asarray(y_true, dtype=bool)
    y_pred = np.asarray(y_pred, dtype=bool)
    if y_true.shape != y_pred.shape:
        raise LearnError("y_true and y_pred must have the same shape")
    if sample_weight is None:
        weight = np.ones(len(y_true))
    else:
        weight = np.asarray(sample_weight, dtype=np.float64)
        if weight.shape != y_true.shape:
            raise LearnError("sample_weight must match y shape")
    tp = float(weight[y_true & y_pred].sum())
    fp = float(weight[~y_true & y_pred].sum())
    fn = float(weight[y_true & ~y_pred].sum())
    tn = float(weight[~y_true & ~y_pred].sum())
    return Confusion(tp=tp, fp=fp, fn=fn, tn=tn)


def precision_recall_f1(
    y_true: np.ndarray, y_pred: np.ndarray
) -> tuple[float, float, float]:
    """Convenience: (precision, recall, F1) of a binary prediction."""
    c = confusion(y_true, y_pred)
    return c.precision, c.recall, c.f1


def jaccard(set_a: np.ndarray, set_b: np.ndarray) -> float:
    """Jaccard similarity of two tid arrays (treated as sets)."""
    a = set(int(x) for x in np.asarray(set_a).ravel())
    b = set(int(x) for x in np.asarray(set_b).ravel())
    if not a and not b:
        return 1.0
    union = a | b
    return len(a & b) / len(union)
