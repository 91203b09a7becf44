"""The ranked provenance pipeline (the bottom half of Figure 1).

``RankedProvenance.debug`` wires the four backend components together::

    Query, S, D', ε ──> Preprocessor ──> Dataset Enumerator
                       ──> Predicate Enumerator ──> Predicate Ranker
                       ──> (optional Merger) ──> ranked predicates

Every stage runs over the whole table in this process. Each stage's
wall-clock time is recorded in the report for the scaling benchmarks,
and each opens a ``stage.*`` span under one ``pipeline.debug`` span.
``RankedProvenance`` is the facade the frontend and service tiers
program against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..db.result import ResultSet
from ..learn.subgroup import SubgroupDiscovery
from ..obs.flags import enabled as obs_enabled
from ..obs.metrics import registry as obs_registry
from ..obs.trace import span as obs_span
from .enumerator import DatasetEnumerator
from .error_metrics import ErrorMetric
from .predicates import DEFAULT_STRATEGIES, PredicateEnumerator, TreeStrategy
from .preprocessor import PreprocessCache, Preprocessor
from .ranker import PredicateRanker, RankerWeights
from .report import DebugReport


@dataclass
class PipelineConfig:
    """All tunables of the ranked provenance pipeline in one place."""

    #: Use closed-form leave-one-out influence (False = naive recompute).
    fast_influence: bool = True
    #: How to clean D': "kmeans", "nb", or "none".
    clean_strategy: str = "kmeans"
    #: Extend candidates with subgroup discovery.
    extend_with_subgroups: bool = True
    #: Influence quantile for the high-influence extension of D'.
    influence_quantile: float = 0.75
    #: Tree strategies for the predicate enumerator (the paper's m).
    strategies: tuple[TreeStrategy, ...] = DEFAULT_STRATEGIES
    #: Split-finding algorithm: "hist" (shared SplitIndex + histogram
    #: kernels) or "exact" (per-threshold reference; ablation only).
    tree_algorithm: str = "hist"
    #: Columns usable in predicates (None = every column of F).
    feature_columns: tuple[str, ...] | None = None
    #: Minimum positive-leaf precision for tree rules.
    min_precision: float = 0.5
    #: Bias tree sample weights by influence scores.
    weight_by_influence: bool = False
    #: Ranker weights and complexity cap.
    ranker_weights: RankerWeights = field(default_factory=RankerWeights)
    max_terms: int = 8
    #: Ranker/Merger scoring path: "batch" (bit-packed clause masks +
    #: one-pass grouped Δε over the whole rule set) or "per_rule" (the
    #: original loop; byte-identical output, kept for ablation).
    score_algorithm: str = "batch"
    #: Post-rank hull merging of fragmented predicates (Scorpion-style).
    merge_predicates: bool = False
    #: Cap on candidate datasets.
    max_candidates: int = 8
    #: Subgroup discovery configuration.
    subgroup: SubgroupDiscovery | None = None
    #: Random seed shared by all stochastic stages.
    seed: int = 0


class RankedProvenance:
    """The DBWipes backend: from a selection to ranked predicates.

    ``preprocess_cache`` (a
    :class:`~repro.core.preprocessor.PreprocessCache`) may be shared by
    many pipelines: the serving tier hands every session the same cache
    so concurrent debugging requests over the same selection reuse one
    :class:`~repro.core.preprocessor.PreprocessResult`.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        preprocess_cache: "PreprocessCache | None" = None,
    ):
        self.config = config = config or PipelineConfig()
        self._preprocessor = Preprocessor(
            fast_influence=config.fast_influence, cache=preprocess_cache
        )
        self._enumerator = DatasetEnumerator(
            clean_strategy=config.clean_strategy,
            extend=config.extend_with_subgroups,
            influence_quantile=config.influence_quantile,
            subgroup=config.subgroup,
            feature_columns=config.feature_columns,
            max_candidates=config.max_candidates,
            seed=config.seed,
        )
        self._predicates = PredicateEnumerator(
            strategies=config.strategies,
            feature_columns=config.feature_columns,
            min_precision=config.min_precision,
            weight_by_influence=config.weight_by_influence,
            tree_algorithm=config.tree_algorithm,
            seed=config.seed,
        )
        self._ranker = PredicateRanker(
            weights=config.ranker_weights,
            max_terms=config.max_terms,
            algorithm=config.score_algorithm,
        )
        self._merger = None
        if config.merge_predicates:
            from .merger import PredicateMerger

            self._merger = PredicateMerger(
                weights=config.ranker_weights,
                max_terms=config.max_terms,
                algorithm=config.score_algorithm,
            )

    @property
    def preprocess_cache(self) -> PreprocessCache | None:
        """The shared preprocess cache, when one is attached."""
        return self._preprocessor.cache

    def debug(
        self,
        result: ResultSet,
        selected_rows: Sequence[int] | np.ndarray,
        metric: ErrorMetric,
        dprime_tids: Sequence[int] | np.ndarray = (),
        agg_name: str | None = None,
        on_partial: Callable[[str, list], None] | None = None,
    ) -> DebugReport:
        """Run the full pipeline and return the ranked predicate report.

        Parameters mirror the paper's inputs: the executed query result,
        the suspicious output rows S, the error metric ε, the optional
        suspicious input examples D', and which aggregate column to debug.
        ``on_partial(stage, ranked)`` streams intermediate ranked lists
        (once after the rank stage, then once per surviving merge round)
        so a front end can push early answers. The hook observes snapshot
        copies only; the report is identical either way.
        """
        timings: dict[str, float] = {}

        with obs_span("pipeline.debug"):
            start = time.perf_counter()
            with obs_span("stage.preprocess"):
                pre = self._preprocessor.run(
                    result, selected_rows, metric, agg_name=agg_name
                )
            timings["preprocess"] = time.perf_counter() - start

            start = time.perf_counter()
            with obs_span("stage.enumerate_datasets"):
                candidates = self._enumerator.run(pre, dprime_tids)
            timings["enumerate_datasets"] = time.perf_counter() - start

            start = time.perf_counter()
            with obs_span("stage.enumerate_predicates"):
                candidate_rules = self._predicates.run(pre, candidates)
            timings["enumerate_predicates"] = time.perf_counter() - start

            start = time.perf_counter()
            with obs_span("stage.rank"):
                ranked = self._ranker.run(pre, candidates, candidate_rules)
            timings["rank"] = time.perf_counter() - start
            if on_partial is not None:
                on_partial("rank", list(ranked))

            if self._merger is not None:
                start = time.perf_counter()
                with obs_span("stage.merge"):
                    ranked = self._merger.run(
                        pre,
                        candidates,
                        ranked,
                        on_round=(
                            None
                            if on_partial is None
                            else lambda rs: on_partial("merge", rs)
                        ),
                    )
                timings["merge"] = time.perf_counter() - start

        if obs_enabled():
            reg = obs_registry()
            reg.counter(
                "dbwipes_debugs_total", help="Pipeline debug() executions."
            ).inc()
            for stage, seconds in timings.items():
                reg.histogram(
                    "dbwipes_stage_seconds",
                    labels={"stage": stage},
                    help="Wall seconds per pipeline stage.",
                ).observe(seconds)
        return DebugReport(
            predicates=tuple(ranked),
            epsilon=pre.epsilon,
            metric_description=metric.describe(),
            selected_rows=pre.selected_rows,
            n_inputs=len(pre.F),
            n_dprime=len(np.asarray(list(dprime_tids), dtype=np.int64)),
            n_candidates=len(candidates),
            timings=timings,
        )
