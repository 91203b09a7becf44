"""CN2-SD subgroup discovery (Lavrač, Kavšek, Flach, Todorovski — JMLR 2004).

The Dataset Enumerator uses subgroup discovery to *extend* the cleaned
user examples ``D'`` into candidate error sets: it searches for compact
conjunctive descriptions whose covered tuples are unusually rich in
positives (user examples and high-influence tuples).

This is a faithful from-scratch CN2-SD:

* rule quality is **weighted relative accuracy** (WRAcc);
* search is **beam search** over conjunctions of attribute conditions;
* after each rule is emitted, covered positives are **multiplicatively
  down-weighted** (weighted covering) so later rules describe different
  parts of the positive class.

Numeric attributes are discretized with class-aware MDL cut points
(falling back to equal-frequency quantiles), yielding threshold
conditions such as ``temp > 100.3``.

The beam search runs on packed bitsets. :meth:`SubgroupDiscovery.fit`
packs the condition masks once into a (conditions × ⌈n/64⌉) matrix of
64-bit words, plus a narrower copy over the positive rows only. Each
level then scores all refinements of a beam entry together: AND the
entry's bits into the matrix, popcount for coverage and for the "any
positive" and "restricted nothing" tests, and unpack nothing until a
rule is emitted. Weighted covering decays only positives, so negatives
weigh 1 and a positive weighs γᵏ after ``k`` decays; a covered weight is
``negatives + Σₖ γᵏ × popcount(covered positives at level k)``.

**Exactness.** Under the default γ = 0.5 every weight is a power of two
no smaller than ``2**-n_rules``, so every partial sum over ``n`` rows is
a multiple of that power below ``n`` and fits in 53 bits whenever
``n_rules + log2(n) <= 53`` (the default six rules allow any table that
fits in memory). Each sum is then exact in any order, and qualities are
bit-identical to summing the covered weights row by row. For other γ
the two orders agree to rounding (about 1e-15 relative), and candidates
whose qualities tie in exact arithmetic may rank differently than under
a row-by-row sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..db.predicate import CategoricalClause, Clause, NumericClause, Predicate
from ..db.table import Table
from ..errors import LearnError
from .bitset import pack_mask, popcount, unpack_masks
from .discretize import equal_frequency_edges, mdl_entropy_edges
from .metrics import wracc
from .rules import Rule, dedupe_rules


@dataclass(frozen=True)
class _Condition:
    """A primitive condition: a clause plus its precomputed row mask."""

    clause: Clause
    mask: np.ndarray
    column: str
    #: "le" (upper bound), "gt" (lower bound), or "eq" (categorical).
    direction: str

    @property
    def slot(self) -> tuple[str, str]:
        """The (column, direction) slot this condition occupies in a rule."""
        return (self.column, self.direction)


@dataclass
class _BeamEntry:
    clauses: tuple[Clause, ...]
    #: Covered rows, packed into 64-bit words.
    bits: np.ndarray
    #: Covered positives, packed over the positive rows only.
    pos_bits: np.ndarray
    #: Number of covered rows.
    count: int
    quality: float
    #: (column, direction) pairs already used; direction is "le"/"gt" for
    #: numeric bounds and "eq" for categorical, so a rule may carry both
    #: bounds of a numeric interval but never two categorical values or two
    #: upper bounds on one column.
    slots: frozenset


@dataclass(frozen=True)
class _ConditionMatrix:
    """The condition masks of one fit, packed once into 64-bit words."""

    #: (conditions × ⌈n/64⌉) packed masks over all rows.
    rows: np.ndarray
    #: (conditions × ⌈positives/64⌉) packed masks over the positive rows.
    pos_rows: np.ndarray
    #: Covered rows and covered positives per condition.
    counts: np.ndarray
    pos_counts: np.ndarray

    @classmethod
    def pack(cls, conditions: list[_Condition], labels: np.ndarray):
        rows = np.stack([pack_mask(c.mask, np.uint64) for c in conditions])
        pos_rows = np.stack(
            [pack_mask(c.mask[labels], np.uint64) for c in conditions]
        )
        return cls(rows, pos_rows, popcount(rows), popcount(pos_rows))


class SubgroupDiscovery:
    """CN2-SD: beam search for high-WRAcc conjunctions with weighted covering."""

    def __init__(
        self,
        beam_width: int = 8,
        max_conditions: int = 3,
        n_rules: int = 6,
        gamma: float = 0.5,
        min_coverage: int = 2,
        numeric_bins: int = 8,
        discretizer: str = "mdl",
        max_values: int = 16,
    ):
        if not 0.0 <= gamma <= 1.0:
            raise LearnError("gamma must be in [0, 1]")
        if beam_width < 1:
            raise LearnError("beam_width must be >= 1")
        if max_conditions < 1:
            raise LearnError("max_conditions must be >= 1")
        if discretizer not in ("mdl", "frequency", "both"):
            raise LearnError("discretizer must be 'mdl', 'frequency', or 'both'")
        self.beam_width = beam_width
        self.max_conditions = max_conditions
        self.n_rules = n_rules
        self.gamma = gamma
        self.min_coverage = min_coverage
        self.numeric_bins = numeric_bins
        self.discretizer = discretizer
        self.max_values = max_values

    # ------------------------------------------------------------------

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
        matrix = _ConditionMatrix.pack(conditions, labels)
        positives = np.flatnonzero(labels)
        weights = np.ones(len(table), dtype=np.float64)
        rules: list[Rule] = []
        emitted: set[Predicate] = set()
        for _ in range(self.n_rules):
            best = self._beam_search(conditions, matrix, labels, weights, emitted)
            if best is None or best.quality <= 0:
                break
            covered_pos = unpack_masks(best.pos_bits, len(positives))[0]
            n_covered = best.count
            n_pos = int(covered_pos.sum())
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
            weights[positives[covered_pos]] *= self.gamma
            if weights[labels].sum() < 1e-9:
                break
        return dedupe_rules(rules)

    # ------------------------------------------------------------------

    def _build_conditions(
        self,
        table: Table,
        labels: np.ndarray,
        features: Sequence[str],
        shared_edges: Mapping[str, Sequence[float]] | None = None,
    ) -> list[_Condition]:
        conditions: list[_Condition] = []
        for name in features:
            ctype = table.schema.type_of(name)
            values = table.column(name)
            if ctype.is_numeric:
                precomputed = (
                    shared_edges.get(name) if shared_edges is not None else None
                )
                edges = self._numeric_edges(values, labels, precomputed)
                for edge in edges:
                    low = NumericClause(name, None, float(edge), hi_inclusive=True)
                    high = NumericClause(name, float(edge), None, lo_inclusive=False)
                    conditions.append(_Condition(low, low.mask(table), name, "le"))
                    conditions.append(_Condition(high, high.mask(table), name, "gt"))
            else:
                counts: dict = {}
                for value in values:
                    if value is None:
                        continue
                    counts[value] = counts.get(value, 0) + 1
                top = sorted(counts, key=lambda v: -counts[v])[: self.max_values]
                for value in top:
                    clause = CategoricalClause(name, frozenset([value]))
                    conditions.append(
                        _Condition(clause, clause.mask(table), name, "eq")
                    )
        # Vacuous conditions (covering all rows or none — e.g. the single
        # value of a constant column) restrict nothing and would only pad
        # rules with noise conjuncts.
        return [
            condition
            for condition in conditions
            if 0 < int(condition.mask.sum()) < len(table)
        ]

    def _numeric_edges(
        self,
        values: np.ndarray,
        labels: np.ndarray,
        precomputed: Sequence[float] | None = None,
    ) -> list[float]:
        values = np.asarray(values, dtype=np.float64)

        def frequency_edges() -> list[float]:
            if precomputed is not None:
                return list(precomputed)
            return equal_frequency_edges(values, self.numeric_bins)

        edges: list[float] = []
        if self.discretizer in ("mdl", "both"):
            edges = mdl_entropy_edges(values, labels)
        if self.discretizer == "frequency" or (
            self.discretizer in ("mdl", "both") and not edges
        ):
            edges = frequency_edges()
        elif self.discretizer == "both":
            merged = sorted(set(edges) | set(frequency_edges()))
            edges = merged
        return edges

    def _beam_search(
        self,
        conditions: list[_Condition],
        matrix: _ConditionMatrix,
        labels: np.ndarray,
        weights: np.ndarray,
        emitted: set[Predicate] | None = None,
    ) -> _BeamEntry | None:
        total_w = float(weights.sum())
        pos_w = float(weights[labels].sum())
        if pos_w <= 0:
            return None
        emitted = emitted or set()
        # Weighted covering only ever decays positives, so negatives weigh
        # 1 and the positives fall into a few weight levels γᵏ: a covered
        # weight is a popcount per level.
        pos_weights = weights[labels]
        levels = np.unique(pos_weights)
        level_bits = pack_mask(pos_weights[None, :] == levels[:, None], np.uint64)

        def qualities(counts, pos_counts, pos_bits) -> list[float]:
            covered_pos_w = np.zeros(len(counts))
            for level, bits in zip(levels, level_bits):
                covered_pos_w += level * popcount(pos_bits & bits)
            covered_w = (counts - pos_counts) + covered_pos_w
            return [
                wracc(total_w, pos_w, float(cw), float(cpw))
                for cw, cpw in zip(covered_w, covered_pos_w)
            ]

        def is_new(entry: _BeamEntry) -> bool:
            predicate = Predicate(entry.clauses).simplify()
            return predicate is not None and predicate not in emitted

        best: _BeamEntry | None = None
        # Level 1: single conditions.
        keep = np.flatnonzero(
            (matrix.counts >= self.min_coverage) & (matrix.pos_counts > 0)
        )
        beam = [
            _BeamEntry(
                clauses=(conditions[index].clause,),
                bits=matrix.rows[index],
                pos_bits=matrix.pos_rows[index],
                count=int(matrix.counts[index]),
                quality=quality,
                slots=frozenset([conditions[index].slot]),
            )
            for index, quality in zip(
                keep,
                qualities(
                    matrix.counts[keep],
                    matrix.pos_counts[keep],
                    matrix.pos_rows[keep],
                ),
            )
        ]
        beam.sort(key=lambda e: -e.quality)
        beam = beam[: self.beam_width]
        for entry in beam:
            if is_new(entry):
                best = entry
                break
        # Deeper levels: all refinements of one beam entry in one pass.
        for _ in range(1, self.max_conditions):
            children: list[_BeamEntry] = []
            seen: set[frozenset] = set()
            for entry in beam:
                # One condition per (column, direction) slot: numeric
                # columns can gain both an upper and a lower bound
                # (forming an interval), categoricals only one value.
                allowed = np.array(
                    [
                        condition.slot not in entry.slots
                        and (condition.column, "eq") not in entry.slots
                        for condition in conditions
                    ]
                )
                rows = matrix.rows & entry.bits
                pos_rows = matrix.pos_rows & entry.pos_bits
                counts = popcount(rows)
                pos_counts = popcount(pos_rows)
                # Keep refinements with enough coverage and a positive that
                # restrict something on this branch, once per clause set.
                fresh: list[tuple[int, _Condition, tuple[Clause, ...]]] = []
                for index in np.flatnonzero(
                    allowed
                    & (counts >= self.min_coverage)
                    & (pos_counts > 0)
                    & (counts != entry.count)
                ):
                    condition = conditions[index]
                    clauses = entry.clauses + (condition.clause,)
                    key = frozenset(clauses)
                    if key in seen:
                        continue
                    seen.add(key)
                    fresh.append((index, condition, clauses))
                indices = [index for index, __, __ in fresh]
                scored = qualities(
                    counts[indices], pos_counts[indices], pos_rows[indices]
                )
                for (index, condition, clauses), quality in zip(fresh, scored):
                    children.append(
                        _BeamEntry(
                            clauses=clauses,
                            bits=rows[index],
                            pos_bits=pos_rows[index],
                            count=int(counts[index]),
                            quality=quality,
                            slots=entry.slots | {condition.slot},
                        )
                    )
            if not children:
                break
            children.sort(key=lambda e: -e.quality)
            beam = children[: self.beam_width]
            for entry in beam:
                # Own the packed rows, so this level's AND results are freed.
                entry.bits = entry.bits.copy()
                entry.pos_bits = entry.pos_bits.copy()
            for entry in beam:
                if is_new(entry) and (best is None or entry.quality > best.quality):
                    best = entry
                    break
        return best
