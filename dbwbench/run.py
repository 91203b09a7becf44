"""Run one DBWipes benchmark workload, or all of them, and print the metrics.

One workload (the last stdout line is the one-line JSON result;
``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones)::

    python3 dbwbench/run.py --workload intel_sweep --seed 1 --seconds 30 --trace 0

Everything — every workload untraced and traced, every metric by name
with its unit and sample count, and the correctness verdict::

    python3 dbwbench/run.py --all --seed 1 --seconds 30 [--record]

``--record`` also writes ``dbwbench/baseline.json``: the environment
stamp, each workload's metrics, repeat_share and layer shares, and the
layer → end-to-end metric → workload prediction map.

Run from a checkout that has ``src/``; without it the run exits with
code 2 and prints no result. Scratch files go to ``.dbwbench/`` under
the checkout (spans of traced runs, per-run result files).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from dbwbench import env  # noqa: E402
from dbwbench.layers import CYCLE_SPAN, PER_LAYER  # noqa: E402
from dbwbench.spans import Tracer, calls_by_name, self_time_by_name  # noqa: E402
from dbwbench.calibrate import REFERENCE_S, Calibrator  # noqa: E402
from dbwbench.stats import host_scaled, median, tail_percentile  # noqa: E402

#: Spans whose per-cycle self time is a per-layer metric (``<name>.self_s``).
SELF_TIME_SPANS = (
    "db.sql",
    "db.inputs_for",
    "frontend.brush",
    "frontend.apply",
    "frontend.debug",
    "preprocess.run",
    "enumerate_datasets",
    "enumerate.clean",
    "enumerate.mdl",
    "enumerate.subgroup",
    "enumerate_predicates",
    "predicates.split_index",
    "predicates.tree_fit",
    "predicates.prune",
    "rank",
)
#: Spans whose per-cycle call count is a per-layer metric (``<name>.calls``).
CALL_SPANS = ("db.sql", "preprocess.run", "enumerate.mdl", "predicates.tree_fit")
#: Counts the wrappers record, reported per cycle under the same name.
WORK_COUNTS = ("enumerate.candidates", "predicates.rules", "rank.rules_scored")
#: fec_served request kinds other than debug.
NON_DEBUG_REQUESTS = (
    "execute", "select_results", "zoom", "select_inputs", "set_metric", "apply", "undo",
)


def _cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def result_path(workload: str, seed: int, trace: int) -> Path:
    """Where a run writes its full record (stamp, extras, sample counts)."""
    return ROOT / ".dbwbench" / f"result-{workload}-seed{seed}-trace{trace}.json"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def timings(setup: list, cycles: list, ops: dict, clients: int) -> dict:
    """The timing metrics of one run, from its set-up, cycle and op seconds.

    ``cycles_per_s`` divides by the cycles' own time, so pauses between
    cycles (calibration, correctness checks) do not count.
    """
    return {
        "setup_s": median(setup),
        "cycle_p50_s": median(cycles),
        "cycles_per_s": clients * len(cycles) / sum(cycles) if cycles else 0.0,
        "brush_p50_s": median(ops.get("brush", [])),
        "apply_p50_s": median(ops.get("apply", [])),
        # Reported where defined; not every workload has them.
        "cycle_p90_s": tail_percentile(cycles),
        "debug_p50_s": median(ops.get("debug", [])),
        "debug_p90_s": tail_percentile(ops.get("debug", [])),
        "apply_p90_s": tail_percentile(ops.get("apply", [])),
        "undo_p50_s": median(ops.get("undo", [])),
    }


def end_to_end(run) -> tuple[dict, dict, dict]:
    """(metrics, raw, samples): the end-to-end metrics plus the full report's extras.

    Timings in ``metrics`` are at the reference host speed
    (:mod:`dbwbench.calibrate`); ``raw`` holds them as the wall clock
    read them, and the median calibration reading.
    """
    ops = run.ops
    failures = run.failed + run.wrong
    readings = run.calibrator.readings if run.calibrator else []

    def scaled(values: list, at: list) -> list:
        return host_scaled(list(zip(at, values)), readings, REFERENCE_S)

    raw = timings(run.setup_s, run.cycles, ops, run.clients)
    raw["host.kernel_p50_s"] = median([seconds for __, seconds in readings])
    metrics = timings(
        scaled(run.setup_s, run.setup_at),
        scaled(run.cycles, run.cycles_at),
        {name: scaled(values, run.ops_at[name]) for name, values in ops.items()},
        run.clients,
    )
    metrics.update(
        {
            "peak_rss_mb": run.peak_rss_mb,
            "success_ratio": 1.0 - failures / max(run.attempted, 1),
            "fail_ratio": failures / max(run.attempted, 1),
            "repeat_share": run.repeat_share,
        }
    )
    samples = {
        "setup_s": len(run.setup_s),
        "cycle_p50_s": len(run.cycles),
        "cycle_p90_s": len(run.cycles),
        "cycles_per_s": len(run.cycles),
        "brush_p50_s": len(ops.get("brush", [])),
        "apply_p50_s": len(ops.get("apply", [])),
        "apply_p90_s": len(ops.get("apply", [])),
        "debug_p50_s": len(ops.get("debug", [])),
        "debug_p90_s": len(ops.get("debug", [])),
        "undo_p50_s": len(ops.get("undo", [])),
        "peak_rss_mb": 1,
        "success_ratio": run.attempted,
        "fail_ratio": run.attempted,
        "repeat_share": len(run.debug_keys),
    }
    samples.update({f"raw.{name}": samples.get(name, 0) for name in raw})
    samples["raw.host.kernel_p50_s"] = len(readings)
    return metrics, raw, samples


def per_layer(run, tracer: Tracer) -> tuple[dict, dict, dict]:
    """(metrics, samples, shares) of a traced run.

    ``shares`` is each span name's self time as a share of the traced
    cycle wall time.
    """
    cycle_spans = [s for s in tracer.spans if s.name == CYCLE_SPAN]
    layer_spans = [s for s in tracer.spans if s.request >= 0]
    n = max(len(cycle_spans), 1)
    self_s = self_time_by_name(layer_spans)
    calls = calls_by_name(layer_spans)
    counts = tracer.counts
    cycle_wall = sum(s.end - s.start for s in cycle_spans)
    layer_self = sum(v for name, v in self_s.items() if name != CYCLE_SPAN)
    sql_wall = sum(s.end - s.start for s in layer_spans if s.name == "db.sql")
    ops = run.ops
    untraced = median(run.untraced_cycles)
    metrics = {f"{name}.self_s": self_s.get(name, 0.0) / n for name in SELF_TIME_SPANS}
    metrics.update({f"{name}.calls": calls.get(name, 0) / n for name in CALL_SPANS})
    metrics.update({name: counts.get(name, 0) / n for name in WORK_COUNTS})
    non_debug = [v for op in NON_DEBUG_REQUESTS for v in ops.get(op, [])]
    n_service_cycles = max(len(run.cycles), 1) if run.service else 1
    metrics.update(
        {
            "db.rows_scanned_per_s": counts.get("db.rows_scanned", 0) / sql_wall
            if sql_wall
            else 0.0,
            "db.open_s": median(run.open_s) or 0.0,
            "preprocess.cache.hit_ratio": run.service.get("cache_hit_ratio", 0.0),
            "service.debug_overhead_s": median(ops.get("debug_overhead", [])) or 0.0,
            "service.request_p50_s": median(non_debug) if run.service else 0.0,
            "service.journal_bytes_per_cycle": run.service.get("journal_bytes", 0)
            / n_service_cycles,
            "service.shed": run.service.get("shed", 0),
            "service.artifact_writes": run.service.get("artifact_writes", 0),
            "trace.overhead_ratio": median(run.traced_cycles) / untraced
            if untraced
            else 0.0,
            "trace.coverage": layer_self / cycle_wall if cycle_wall else 0.0,
            "repeat_share": run.repeat_share,
            "fail_ratio": (run.failed + run.wrong) / max(run.attempted, 1),
        }
    )
    samples = {name: len(cycle_spans) for name in metrics}
    if run.service:
        samples.update({name: len(run.cycles) for name in metrics if name.startswith("service.")})
    samples["db.open_s"] = len(run.open_s)
    samples["service.debug_overhead_s"] = len(ops.get("debug_overhead", []))
    samples["service.request_p50_s"] = len(non_debug) if run.service else 0
    samples["trace.overhead_ratio"] = min(len(run.traced_cycles), len(run.untraced_cycles))
    shares = {
        name: round(seconds / cycle_wall, 4)
        for name, seconds in sorted(self_s.items(), key=lambda item: -item[1])
        if name != CYCLE_SPAN and cycle_wall
    }
    return metrics, samples, shares


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full result record."""
    from dbwbench.workloads import SCALES, WORKLOADS, prepare_workdir

    spec = load_spec()
    tracer = Tracer() if trace else None
    workdir = prepare_workdir(ROOT)
    ticks_before = env.cpu_ticks()
    wall_before, cpu_before = time.perf_counter(), _cpu_seconds()
    with ExitStack() as stack:
        stack.callback(shutil.rmtree, workdir, ignore_errors=True)
        # A traced run reports no end-to-end timings, so needs no calibration.
        calibrator = None if trace else stack.enter_context(Calibrator())
        run = WORKLOADS[workload](seed, seconds, tracer, workdir, calibrator)
    total, steal = (after - before for after, before in zip(env.cpu_ticks(), ticks_before))
    host = {
        "wall_s": time.perf_counter() - wall_before,
        "cpu_s": _cpu_seconds() - cpu_before,
        "steal_share": steal / total if total else 0.0,
    }
    if trace:
        metrics, samples, shares = per_layer(run, tracer)
        declared = spec["per_layer"]
        tracer.dump(ROOT / ".dbwbench" / f"spans-{workload}-seed{seed}.jsonl")
    else:
        metrics, raw, samples = end_to_end(run)
        metrics.update({f"raw.{name}": value for name, value in raw.items()})
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if metrics.get(m["name"]) is None]
    record = {
        "workload": workload,
        "trace": int(trace),
        "stamp": {**env.stamp(ROOT, workload, seed, SCALES[workload]), **host},
        "seconds": seconds,
        "correct": run.wrong == 0 and run.failed == 0 and not missing,
        "attempted": run.attempted,
        "failed": run.failed + run.wrong,
        "units": {m["name"]: m["unit"] for m in declared},
        "metrics": metrics,
        "samples": samples,
        "missing": missing,
        "notes": run.notes[:20],
    }
    if trace:
        record["layer_shares"] = shares
    return record


def result_line(record: dict) -> str:
    """The one-line JSON result: exactly the declared metrics, with units."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": record["metrics"][name], "unit": unit}
                for name, unit in record["units"].items()
                if record["metrics"].get(name) is not None
            },
        }
    )


def describe(record: dict) -> list[str]:
    """Human-readable lines: every metric by name, unit and sample count."""
    units = dict(record["units"])
    units.update({m[0]: m[1] for m in PER_LAYER})
    extra_units = {
        "cycle_p90_s": "s", "debug_p50_s": "s", "debug_p90_s": "s",
        "apply_p90_s": "s", "undo_p50_s": "s",
    }
    units.update({k: v for k, v in extra_units.items() if k not in units})
    lines = [
        f"== {record['workload']} (trace {record['trace']}, seed "
        f"{record['stamp']['seed']}, scale {record['stamp']['scale']}x, "
        f"{record['stamp']['cpus']} cpus) correct={record['correct']} "
        f"attempted={record['attempted']} failed={record['failed']}"
    ]
    for name, value in record["metrics"].items():
        if value is None:
            shown = "n/a" if record["samples"].get(name) else "not run"
        else:
            shown = f"{value:.6g}"
        lines.append(
            f"  {name:34s} {shown:>14s} {units.get(name.removeprefix('raw.'), 's'):12s} "
            f"n={record['samples'].get(name, '-')}"
        )
    for note in record["notes"]:
        lines.append(f"  note: {note}")
    return lines


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    spec = load_spec()
    records = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            done = subprocess.run(
                [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ],
                stdout=subprocess.DEVNULL,
                timeout=600,
            )
            if done.returncode != 0:
                print(f"{workload} trace {trace}: exit {done.returncode}", file=sys.stderr)
                return done.returncode
            with open(result_path(workload, args.seed, trace)) as handle:
                records.append(json.load(handle))
    for record in records:
        print("\n".join(describe(record)))
    verdict = all(r["correct"] for r in records)
    print(f"correctness: {'PASS' if verdict else 'FAIL'}")
    if args.record:
        baseline = {
            "command": "python3 dbwbench/run.py --all --seed "
            f"{args.seed} --seconds {args.seconds} --record",
            "stamp": {k: v for k, v in records[0]["stamp"].items() if k not in ("workload", "seed", "scale")},
            "workloads": {
                w["name"]: {
                    "why": w["why"],
                    "seed": args.seed,
                    "scale": next(r for r in records if r["workload"] == w["name"])["stamp"]["scale"],
                    "repeat_share": next(
                        r for r in records if r["workload"] == w["name"] and r["trace"] == 0
                    )["metrics"]["repeat_share"],
                }
                for w in spec["workloads"]
            },
            "results": {
                f"{r['workload']}/trace{r['trace']}": {
                    "metrics": r["metrics"],
                    "samples": r["samples"],
                    **({"layer_shares": r["layer_shares"]} if r["trace"] else {}),
                }
                for r in records
            },
            "predictions": {name: moves for name, unit, better, moves in PER_LAYER},
        }
        with open(ROOT / "dbwbench" / "baseline.json", "w") as handle:
            json.dump(baseline, handle, indent=1)
            handle.write("\n")
    return 0 if verdict else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--record", action="store_true", help="with --all: write baseline.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.all:
        return run_all(args)
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(result_path(args.workload, args.seed, args.trace), "w") as handle:
        json.dump(record, handle, indent=1)
    print("\n".join(describe(record)))
    if record["missing"]:
        print(f"error: no value for {record['missing']}", file=sys.stderr)
        return 1
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
