"""The layers the traced run times, and what each should move.

:func:`layer_patches` lists the public entry points wrapped during a
``--trace 1`` run. Each becomes a span named after its layer; the
benchmark derives per-layer self times from those spans.

:data:`PER_LAYER` is the per-layer metric catalogue. ``moves`` names
the end-to-end metric each layer metric should move and the workload it
should move it on, written down before any optimisation is measured.
"""

from __future__ import annotations

#: Per-layer metrics: (name, unit, better, moves). Self times, calls and
#: work counts are per benchmark cycle. ``moves`` is the prediction: the
#: end-to-end metric the layer should move, and on which workload.
#: ``debug_p50_s`` is in every full report where debug runs; the
#: JSON result line carries ``cycle_p50_s``, which it dominates there.
_SWEEP_DEBUG = "debug_p50_s and cycle_p50_s on intel_sweep"
_ENUMERATORS = (
    "debug_p50_s, cycle_p50_s and cycles_per_s on intel_sweep; none on intel_requery"
)
PER_LAYER = [
    ("db.sql.calls", "calls/cycle", "lower", "apply_p50_s on intel_requery"),
    ("db.sql.self_s", "s/cycle", "lower", "apply_p50_s on intel_requery"),
    ("db.rows_scanned_per_s", "rows/s", "higher", "apply_p50_s on intel_requery"),
    ("db.inputs_for.self_s", "s/cycle", "lower", "brush_p50_s on intel_requery"),
    ("db.open_s", "s", "lower", "setup_s on intel_requery"),
    ("frontend.brush.self_s", "s/cycle", "lower", "brush_p50_s on intel_requery"),
    ("frontend.apply.self_s", "s/cycle", "lower", "apply_p50_s on intel_requery"),
    ("frontend.debug.self_s", "s/cycle", "lower", _SWEEP_DEBUG),
    ("preprocess.run.calls", "calls/cycle", "lower", _SWEEP_DEBUG),
    ("preprocess.run.self_s", "s/cycle", "lower", _SWEEP_DEBUG),
    ("preprocess.cache.hit_ratio", "ratio", "higher", "debug_p50_s on fec_served"),
    ("enumerate_datasets.self_s", "s/cycle", "lower", _ENUMERATORS),
    ("enumerate.clean.self_s", "s/cycle", "lower", _ENUMERATORS),
    ("enumerate.mdl.calls", "calls/cycle", "lower", _ENUMERATORS),
    ("enumerate.mdl.self_s", "s/cycle", "lower", _ENUMERATORS),
    ("enumerate.subgroup.self_s", "s/cycle", "lower", _ENUMERATORS),
    ("enumerate.candidates", "count/cycle", "lower", _ENUMERATORS),
    ("enumerate_predicates.self_s", "s/cycle", "lower", _SWEEP_DEBUG),
    ("predicates.split_index.self_s", "s/cycle", "lower", _SWEEP_DEBUG),
    ("predicates.tree_fit.calls", "calls/cycle", "lower", _SWEEP_DEBUG),
    ("predicates.tree_fit.self_s", "s/cycle", "lower", _SWEEP_DEBUG),
    ("predicates.prune.self_s", "s/cycle", "lower", _SWEEP_DEBUG),
    ("predicates.rules", "count/cycle", "lower", _SWEEP_DEBUG),
    ("rank.self_s", "s/cycle", "lower", _SWEEP_DEBUG),
    ("rank.rules_scored", "count/cycle", "lower", _SWEEP_DEBUG),
    ("service.debug_overhead_s", "s", "lower", "debug_p50_s on fec_served"),
    ("service.request_p50_s", "s", "lower", "cycle_p50_s and cycles_per_s on fec_served"),
    ("service.journal_bytes_per_cycle", "bytes/cycle", "lower", "cycle_p50_s and cycles_per_s on fec_served"),
    ("service.shed", "count", "lower", "success_ratio on fec_served"),
    ("service.artifact_writes", "count", "lower", "setup_s on fec_served"),
    ("trace.overhead_ratio", "ratio", "lower", "none: the cost of tracing itself"),
    ("trace.coverage", "ratio", "higher", "none: share of cycle wall time the spans explain"),
    ("repeat_share", "ratio", "higher", "a memo moves debug_p50_s on fec_served (about 1) and not on intel_sweep (0)"),
    ("fail_ratio", "ratio", "lower", "success_ratio on every workload"),
]

#: Name of each cycle's root span. Layer time is every other span's self
#: time, so coverage = layer self time / cycle wall time.
CYCLE_SPAN = "cycle"


def _rows_scanned(args, kwargs, result) -> dict:
    return {"db.rows_scanned": len(result.source)}


def _candidates(args, kwargs, result) -> dict:
    return {"enumerate.candidates": len(result)}


def _rules(args, kwargs, result) -> dict:
    return {"predicates.rules": len(result)}


def _rules_scored(args, kwargs, result) -> dict:
    rules = args[3] if len(args) > 3 else kwargs["candidate_rules"]
    return {"rank.rules_scored": len(rules)}


def layer_patches() -> list[tuple]:
    """``(owner, attribute, span name, counter)`` for every traced entry point."""
    import repro.learn.subgroup as subgroup_module
    from repro.core.enumerator import DatasetEnumerator
    from repro.core.predicates import PredicateEnumerator
    from repro.core.preprocessor import Preprocessor, PreprocessResult
    from repro.core.ranker import PredicateRanker
    from repro.db.catalog import Database
    from repro.db.result import ResultSet
    from repro.frontend.session import DBWipesSession
    from repro.learn.split_index import SplitIndex
    from repro.learn.subgroup import SubgroupDiscovery
    from repro.learn.tree import DecisionTree

    return [
        (Database, "sql", "db.sql", _rows_scanned),
        (ResultSet, "inputs_for", "db.inputs_for", None),
        (DBWipesSession, "select_results", "frontend.brush", None),
        (DBWipesSession, "zoom", "frontend.brush", None),
        (DBWipesSession, "select_inputs", "frontend.brush", None),
        (DBWipesSession, "set_metric", "frontend.metric", None),
        (DBWipesSession, "debug", "frontend.debug", None),
        (DBWipesSession, "apply_predicate", "frontend.apply", None),
        (DBWipesSession, "undo_cleaning", "frontend.apply", None),
        (Preprocessor, "run", "preprocess.run", None),
        (DatasetEnumerator, "run", "enumerate_datasets", _candidates),
        (DatasetEnumerator, "clean_dprime", "enumerate.clean", None),
        # subgroup.py calls its module-level name, so wrap that binding.
        (subgroup_module, "mdl_entropy_edges", "enumerate.mdl", None),
        (SubgroupDiscovery, "fit", "enumerate.subgroup", None),
        (PredicateEnumerator, "run", "enumerate_predicates", _rules),
        (PreprocessResult, "split_index", "predicates.split_index", None),
        (SplitIndex, "take", "predicates.split_index", None),
        (DecisionTree, "fit", "predicates.tree_fit", None),
        (DecisionTree, "prune_reduced_error", "predicates.prune", None),
        (DecisionTree, "cost_complexity_prune", "predicates.prune", None),
        (PredicateRanker, "run", "rank", _rules_scored),
    ]
