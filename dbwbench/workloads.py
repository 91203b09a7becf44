"""The three workloads: each drives the public API the way a DBWipes user does.

Every workload is a closed loop with zero think time. It builds its
inputs from the seed, sets itself up :data:`SETUPS` times (the median is
``setup_s``; each set-up ends with one untimed warm-up step), then runs
cycles until ``seconds`` have passed. Correctness checks run outside the
timed region and count towards ``failed``. An untraced run takes a
host-speed reading (:mod:`dbwbench.calibrate`) before each set-up and
between cycles, never inside timed work.

``intel_sweep``
    In-process session over intel at 10×. Every step brushes a new S
    (std_temp above U(3,5) × the median std_temp), a new D′ (temp above
    U(95,105)), picks ``too_high``, debugs, applies the top predicate
    and undoes it. The enumerators dominate; no step repeats an earlier
    (S, D′, ε), so a memo can only cost here.
``fec_served``
    The scripted §3.2 FEC cycle at 1× through ``python -m repro serve
    --async --workers 2 --data-dir D`` (journals and artifacts are
    written), driven by two client connections on two copies of the
    CLI's FEC table. Compute is small, so the gateway, router, worker
    pipes and journal writes show; every debug after the first repeats
    its inputs. The script is fixed, so the seed only names the sessions.
``intel_requery``
    In-process session over intel at 50×, saved once and reopened with
    ``Table.open`` (mmap). Each step brushes S above a quantile of
    std_temp in :data:`REQUERY_QUANTILES`, zooms, and applies
    ``temp >= t``; every third step undoes the block's three cleanings.
    No debug runs, so no learner runs.

Step parameters come from a seeded low-discrepancy sequence
(:func:`low_discrepancy`), so a run of a dozen steps covers the ranges
evenly and medians vary less from seed to seed.
"""

from __future__ import annotations

import json
import os
import re
import resource
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .calibrate import Calibrator
from .layers import CYCLE_SPAN, layer_patches
from .spans import Tracer, patched

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Minimum F1 of intel_sweep's top predicate against the ground truth.
F1_FLOOR = 0.8
#: fec_served's datasets, one client connection each (two clients for a
#: two-core host). Both hold the CLI's FEC table. The router places a
#: dataset on a worker by consistent hash, and these two names land on
#: different workers of a two-worker pool, so each client has a worker
#: of its own; on one shared worker the two closed loops phase-lock and
#: per-request latencies flip between modes from run to run.
FEC_DATASETS = ("fec", "fec-a")
FEC_WORKERS = 2
#: Cycles each fec_served client runs between host-speed readings.
CALIBRATE_EVERY = 3
#: Seconds one wire request may take before it counts as a timeout.
REQUEST_TIMEOUT = 60.0
#: Seconds the served workload waits for its server to start or stop.
SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 15.0

SCALES = {"intel_sweep": 10, "fec_served": 1, "intel_requery": 50}
#: intel_requery brushes the std_temp windows above a quantile drawn from
#: this band. Zoom time grows faster than linearly in the tuples behind
#: S, so over a wide band (0.80-0.95 gave 10x between steps) the median
#: brush of a run depends on which quantiles its seed drew: eight seeds
#: interleaved in one process spread 16% on brush_p50_s. This band keeps
#: S at 96-144 windows (8-12% of them) and that spread near 5%.
REQUERY_QUANTILES = (0.88, 0.92)


@dataclass
class Run:
    """Everything one run measured; :mod:`dbwbench.run` turns it into metrics."""

    setup_s: list[float] = field(default_factory=list)
    open_s: list[float] = field(default_factory=list)
    cycles: list[float] = field(default_factory=list)
    #: Per-op latencies: brush, metric, debug, apply, undo, execute, ...
    ops: dict[str, list[float]] = field(default_factory=dict)
    #: perf_counter time at which each set-up, cycle and op ended, in the
    #: order of ``setup_s``, ``cycles`` and ``ops``: each sample is scaled
    #: by the calibration readings nearest to it in time.
    setup_at: list[float] = field(default_factory=list)
    cycles_at: list[float] = field(default_factory=list)
    ops_at: dict[str, list[float]] = field(default_factory=dict)
    #: Client connections whose cycles overlap (cycles_per_s counts all).
    clients: int = 1
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    debug_keys: list = field(default_factory=list)
    repeat_share: float = 0.0
    peak_rss_mb: float = 0.0
    #: Traced-run extras: paired untraced/traced cycle seconds, service stats.
    untraced_cycles: list[float] = field(default_factory=list)
    traced_cycles: list[float] = field(default_factory=list)
    service: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: Host-speed calibration of an untraced run; ``None`` when traced.
    calibrator: Calibrator | None = None

    def op(self, name: str, seconds: float) -> None:
        self.ops.setdefault(name, []).append(seconds)
        self.ops_at.setdefault(name, []).append(time.perf_counter())

    def cycle(self, seconds: float) -> None:
        self.cycles.append(seconds)
        self.cycles_at.append(time.perf_counter())

    def setup(self, seconds: float) -> None:
        self.setup_s.append(seconds)
        self.setup_at.append(time.perf_counter())

    def calibrate(self) -> None:
        """Take one host-speed reading; call it between timed work only."""
        if self.calibrator is not None:
            self.calibrator.sample()


#: Per-coordinate steps of :func:`low_discrepancy`: the fractional parts
#: of the golden and silver ratios, whose continued fractions (all 1s,
#: all 2s) make every prefix of ``n * step mod 1`` evenly spread.
KRONECKER_STEPS = ((5 ** 0.5 - 1) / 2, 2 ** 0.5 - 1)


def low_discrepancy(
    rng: np.random.Generator, bounds: list[tuple[float, float]]
) -> Iterator[list[float]]:
    """Endless points in the box ``bounds``: a Kronecker sequence at a seeded offset.

    Every prefix covers each range evenly, so a run's steps cover the
    parameter ranges the same way whatever its length, and step medians
    vary less between seeds than with independent uniform draws.
    """
    if len(bounds) > len(KRONECKER_STEPS):
        raise ValueError(f"at most {len(KRONECKER_STEPS)} coordinates")
    offset = rng.random(len(bounds))
    n = 0
    while True:
        n += 1
        yield [
            lo + (hi - lo) * ((offset[k] + n * KRONECKER_STEPS[k]) % 1.0)
            for k, (lo, hi) in enumerate(bounds)
        ]


def repeat_share(keys: list) -> float:
    """Fraction of keys that already occurred earlier in the list."""
    seen: set = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys) if keys else 0.0


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(run: Run, name: str, fn, *args, **kwargs):
    """Call ``fn`` and record its latency under ``name``."""
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        run.op(name, time.perf_counter() - start)


class _Cycle:
    """Times one cycle; traced, it is a root span with the layers wrapped.

    ``wrap_layers=False`` records only the root span: the caller adds
    its own spans, and concurrent cycles never race on the patching.
    """

    def __init__(
        self,
        tracer: Tracer | None,
        request: int,
        traced: bool,
        wrap_layers: bool = True,
    ):
        self.tracer = tracer if traced else None
        self.request = request
        self.wrap_layers = wrap_layers
        self.seconds = 0.0

    def __enter__(self) -> "_Cycle":
        self._stack = ExitStack()
        if self.tracer is not None:
            if self.wrap_layers:
                self._stack.enter_context(patched(self.tracer, layer_patches()))
            self._stack.enter_context(self.tracer.span(CYCLE_SPAN, request=self.request))
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start
        self._stack.__exit__(*exc_info)


# ----------------------------------------------------------------------
# intel_sweep
# ----------------------------------------------------------------------


def _sweep_step(session, run: Run, cutoff: float, threshold: float):
    """One brush → debug → apply → undo step; returns (S, D′, report)."""
    from repro.frontend import Brush

    brush = time.perf_counter()
    rows = session.select_results(Brush.above(cutoff), y="std_temp")
    session.zoom()
    dprime = session.select_inputs(Brush.above(threshold))
    run.op("brush", time.perf_counter() - brush)
    _timed(run, "metric", session.set_metric, "too_high", agg_name="std_temp")
    report = _timed(run, "debug", session.debug, "std_temp")
    _timed(run, "apply", session.apply_predicate, 0)
    _timed(run, "undo", session.undo_cleaning)
    run.attempted += 7
    return rows, dprime, report


def intel_sweep(
    seed: int,
    seconds: float,
    tracer: Tracer | None,
    workdir: Path,
    calibrator: Calibrator | None,
) -> Run:
    from repro.data import (
        WALKTHROUGH_QUERY,
        explanation_quality,
        generate_intel,
        intel_at_scale,
    )
    from repro.db import Database
    from repro.errors import ReproError
    from repro.frontend import DBWipesSession

    run = Run(calibrator=calibrator)
    # The CLI's intel dataset (fixed generator seed) at 10×: the seed
    # drives the brush steps, not the data.
    table, truth = generate_intel(
        intel_at_scale(SCALES["intel_sweep"], failure_onset_frac=0.7)
    )
    steps = low_discrepancy(np.random.default_rng(seed), [(3.0, 5.0), (95.0, 105.0)])

    def key(rows, dprime) -> tuple:
        return (tuple(rows), np.asarray(dprime).tobytes(), "too_high:std_temp")

    warm = Run()
    for _ in range(SETUPS):
        run.calibrate()
        start = time.perf_counter()
        db = Database()
        db.register(table)
        session = DBWipesSession(db)
        session.execute(WALKTHROUGH_QUERY)
        median_std = float(np.median(session.result.column("std_temp")))
        rows, dprime, __ = _sweep_step(session, warm, 4.0 * median_std, 100.0)
        run.setup(time.perf_counter() - start)
    run.debug_keys.append(key(rows, dprime))

    deadline = time.perf_counter() + seconds
    request = 0
    while time.perf_counter() < deadline:
        multiplier, threshold = next(steps)
        cutoff = multiplier * median_std
        # A traced run pairs every step with an untraced copy of itself
        # (alternating which goes first) to measure the tracing overhead.
        passes = [False] if tracer is None else [request % 2 == 0, request % 2 == 1]
        for traced in passes:
            run.calibrate()
            try:
                with _Cycle(tracer, request, traced) as cycle:
                    rows, dprime, report = _sweep_step(session, run, cutoff, threshold)
            except ReproError as error:
                run.failed += 1
                run.notes.append(f"step {request}: {type(error).__name__}: {error}")
                session.execute(WALKTHROUGH_QUERY)
                continue
            if tracer is None:
                run.cycle(cycle.seconds)
            else:
                (run.traced_cycles if traced else run.untraced_cycles).append(cycle.seconds)
            if traced == passes[0]:
                run.debug_keys.append(key(rows, dprime))
            F = session.result.inputs_for(list(rows))
            f1 = explanation_quality(report.best.predicate, F, truth).f1
            if not f1 >= F1_FLOOR:
                run.wrong += 1
                run.notes.append(
                    f"step {request}: top predicate "
                    f"{report.best.predicate.describe()!r} has F1 {f1:.3f}"
                )
        request += 1
    run.calibrate()
    if tracer is not None:
        run.cycles = list(run.traced_cycles)
    run.repeat_share = repeat_share(run.debug_keys)
    run.peak_rss_mb = _self_rss_mb()
    return run


# ----------------------------------------------------------------------
# fec_served
# ----------------------------------------------------------------------


def _import_fec(data_dir: Path) -> None:
    """Persist the CLI's FEC table under every name in :data:`FEC_DATASETS`.

    The same step as ``python -m repro store import``; the server then
    serves each dataset from its memory-mapped copy.
    """
    from repro.cli import BOOTSTRAP_QUERIES, load_dataset
    from repro.service import DatasetCatalog

    db = load_dataset("fec")
    catalog = DatasetCatalog(data_dir=data_dir)
    for name in FEC_DATASETS:
        catalog.register(name, lambda: db, bootstrap=BOOTSTRAP_QUERIES["fec"])
        catalog.get(name)


def _canonical(predicates: list) -> bytes:
    return json.dumps(predicates, sort_keys=True).encode()


def _fec_expected() -> bytes:
    """The ranked list an in-process session gives for the §3.2 script."""
    from repro.cli import BOOTSTRAP_QUERIES, load_dataset
    from repro.frontend import Brush, DBWipesSession
    from repro.service.protocol import jsonify, report_payload

    session = DBWipesSession(load_dataset("fec"))
    session.execute(BOOTSTRAP_QUERIES["fec"])
    session.select_results(Brush.below(0.0))
    session.zoom()
    session.select_inputs(Brush.below(0.0))
    session.set_metric("too_low", threshold=0.0)
    report = session.debug()
    return _canonical(jsonify(report_payload(report)["predicates"]))


def _fec_cycle(client, run: Run, tracer: Tracer | None, lock: threading.Lock):
    """The §3.2 cycle over the wire; returns (key, ranked list bytes)."""
    latency: dict[str, float] = {}

    def call(op: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.span(f"service.{op}"):
                return fn(*args, **kwargs)
        finally:
            latency[op] = time.perf_counter() - start
            with lock:
                run.op(op, latency[op])
                run.attempted += 1

    call("execute", client.execute, client.bootstrap, max_rows=0)
    brush = time.perf_counter()
    rows = call("select_results", client.select_results, brush={"below": 0.0})
    call("zoom", client.zoom, max_points=0)
    dprime = call("select_inputs", client.select_inputs, brush={"below": 0.0})
    brush_s = time.perf_counter() - brush
    metric = call("set_metric", client.set_metric, "too_low", threshold=0.0)
    reply = call("debug", client.debug, max_rows=None)
    call("apply", client.apply, 0, max_rows=0)
    call("undo", client.undo, max_rows=0)
    with lock:
        run.op("brush", brush_s)
        run.op("debug_overhead", latency["debug"] - sum(reply["timings"].values()))
    key = (client.dataset, tuple(rows), tuple(dprime), metric)
    return key, _canonical(reply["predicates"])


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _children(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            return [int(child) for child in handle.read().split()]
    except OSError:
        return []


class _ServerProcess:
    """``python -m repro serve --async --workers N --data-dir D`` as a child.

    The gateway runs in its own process, as deployed, so the client
    threads of the benchmark never contend with it for one interpreter
    lock. :meth:`stop` interrupts it (the CLI's orderly shutdown stops
    the workers) and waits for the server and every worker to exit.
    """

    def __init__(self, data_dir: Path, log_path: Path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        # A process started in the background by a non-interactive shell
        # has SIGINT ignored, the server would inherit that, and a Python
        # started with SIGINT ignored never raises KeyboardInterrupt.
        # With a handler installed here the child starts with the default.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--async",
                "--workers", str(FEC_WORKERS), "--port", "0",
                "--data-dir", str(data_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            text=True,
        )
        self.workers: list[int] = []
        ready, __, __ = select.select([self.proc.stdout], [], [], SERVER_START_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.address = (match.group(1), int(match.group(2)))

    def peak_rss_mb(self) -> float:
        """Peak RSS of the gateway plus each worker process, summed."""
        self.workers = _children(self.proc.pid)
        return sum(_peak_rss_mb(pid) for pid in [self.proc.pid, *self.workers])

    def stop(self) -> None:
        self.workers = self.workers or _children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        # Orphaned workers exit on their pipe's EOF; wait for them too.
        deadline = time.monotonic() + SERVER_STOP_TIMEOUT
        while any(Path(f"/proc/{pid}").exists() for pid in self.workers):
            if time.monotonic() > deadline:
                for pid in self.workers:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                break
            time.sleep(0.05)


def _metric_total(snapshot: dict, name: str) -> float:
    return sum(
        float(m.get("value", 0)) for m in snapshot.get("metrics", []) if m["name"] == name
    )


def fec_served(
    seed: int,
    seconds: float,
    tracer: Tracer | None,
    workdir: Path,
    calibrator: Calibrator | None,
) -> Run:
    from repro.errors import ReproError, ServiceError
    from repro.service import ServiceClient

    run = Run(calibrator=calibrator, clients=len(FEC_DATASETS))
    expected = _fec_expected()
    server = None
    clients: list = []
    lock = threading.Lock()
    warm = Run()
    try:
        for attempt in range(SETUPS):
            for client in clients:
                client.close()
            if server is not None:
                server.stop()
            data_dir = workdir / f"data{attempt}"
            _import_fec(data_dir)
            run.calibrate()
            start = time.perf_counter()
            server = _ServerProcess(data_dir, workdir / f"server{attempt}.log")
            clients = []
            for dataset in FEC_DATASETS:
                client = ServiceClient(
                    *server.address,
                    session=f"bench-{seed}-{dataset}",
                    timeout=REQUEST_TIMEOUT,
                ).connect()
                client.dataset = dataset
                client.open(dataset)
                clients.append(client)
            warm.debug_keys = [_fec_cycle(c, warm, None, lock)[0] for c in clients]
            run.setup(time.perf_counter() - start)
        run.debug_keys.extend(warm.debug_keys)
        journal = data_dir / "journal"
        journal_before = _dir_bytes(journal)

        deadline = time.perf_counter() + seconds
        traced_flags: list[bool] = []
        # Every CALIBRATE_EVERY cycles the clients meet, and the last to
        # arrive takes a host-speed reading while the server is idle.
        meet = threading.Barrier(len(clients), action=run.calibrate)

        def drive(client) -> None:
            try:
                loop(client)
            except Exception:  # a dead client thread must count, not vanish
                with lock:
                    run.failed += 1
                    run.notes.append(traceback.format_exc(limit=3))
            finally:
                meet.abort()  # the other client must not wait for this one

        def loop(client) -> None:
            count = 0
            while time.perf_counter() < deadline:
                if calibrator is not None and count % CALIBRATE_EVERY == 0:
                    try:
                        meet.wait(timeout=REQUEST_TIMEOUT)
                    except threading.BrokenBarrierError:
                        pass
                # Every other cycle of a traced run is untraced, to
                # measure the tracing overhead.
                traced = tracer is not None and count % 2 == 0
                count += 1
                try:
                    with _Cycle(tracer, count, traced, wrap_layers=False) as cycle:
                        key, ranked = _fec_cycle(
                            client, run, tracer if traced else None, lock
                        )
                except ServiceError as error:
                    # Includes ServerBusy sheds; the server's own counter
                    # reports them as service.shed.
                    with lock:
                        run.failed += 1
                        run.notes.append(f"{type(error).__name__}: {error}")
                    continue
                except (ReproError, OSError) as error:
                    with lock:
                        run.failed += 1
                        run.notes.append(f"{type(error).__name__}: {error}")
                    client.close()
                    client.connect()
                    client.open(client.dataset)
                    continue
                with lock:
                    run.cycle(cycle.seconds)
                    traced_flags.append(traced)
                    run.debug_keys.append(key)
                    if ranked != expected:
                        run.wrong += 1
                        run.notes.append("ranked list differs from in-process")

        threads = [
            threading.Thread(target=drive, args=(client,), name=f"bench-client-{i}")
            for i, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        run.calibrate()

        stats = clients[0].stats()
        cache = stats.get("preprocess_cache", {})
        placed = [w.get("stats", {}).get("sessions") for w in stats.get("per_worker", [])]
        if placed != [1] * FEC_WORKERS:
            run.notes.append(f"sessions per worker {placed}, not one each")
        shed = _metric_total(clients[0].metrics().get("merged", {}), "dbwipes_shed_total")
        run.service = {
            "cache_hit_ratio": float(cache.get("hit_rate", 0.0)),
            "artifact_writes": int(cache.get("disk_writes", 0)),
            "shed": int(shed),
            "journal_bytes": _dir_bytes(journal) - journal_before,
        }
        run.peak_rss_mb = server.peak_rss_mb()
        if tracer is not None:
            run.traced_cycles = [c for c, t in zip(run.cycles, traced_flags) if t]
            run.untraced_cycles = [c for c, t in zip(run.cycles, traced_flags) if not t]
    finally:
        for client in clients:
            client.close()
        if server is not None:
            server.stop()
    run.repeat_share = repeat_share(run.debug_keys)
    return run


# ----------------------------------------------------------------------
# intel_requery
# ----------------------------------------------------------------------


def _expected_groups(minute: np.ndarray, temp: np.ndarray, cuts: list[float]):
    """GROUP BY minute / 30 of avg and sample stddev, via numpy bincount."""
    keep = np.ones(len(temp), dtype=bool)
    for cut in cuts:
        keep &= ~(temp >= cut)
    window = minute[keep] // 30
    values = temp[keep]
    counts = np.bincount(window)
    present = np.nonzero(counts)[0]
    sums = np.bincount(window, weights=values)
    means = sums[present] / counts[present]
    mean_of_row = np.zeros(len(counts))
    mean_of_row[present] = means
    squares = np.bincount(window, weights=(values - mean_of_row[window]) ** 2)
    with np.errstate(invalid="ignore", divide="ignore"):
        std = np.sqrt(squares[present] / (counts[present] - 1))
    return present, means, std


def _groups_match(result, expected) -> bool:
    windows, means, std = expected
    got_windows = np.asarray(result.column("window"), dtype=np.int64)
    if not np.array_equal(got_windows, windows):
        return False
    return np.allclose(
        result.column("avg_temp"), means, rtol=1e-9, atol=1e-9
    ) and np.allclose(
        result.column("std_temp"), std, rtol=1e-9, atol=1e-9, equal_nan=True
    )


def _requery_step(session, run: Run, quantile: float, cut: float) -> None:
    from repro.db.predicate import NumericClause, Predicate
    from repro.frontend import Brush

    cutoff = float(np.quantile(session.result.column("std_temp"), quantile))
    brush = time.perf_counter()
    session.select_results(Brush.above(cutoff), y="std_temp")
    session.zoom()
    run.op("brush", time.perf_counter() - brush)
    predicate = Predicate([NumericClause("temp", lo=cut)])
    _timed(run, "apply", session.apply_predicate, predicate)
    run.attempted += 3


def intel_requery(
    seed: int,
    seconds: float,
    tracer: Tracer | None,
    workdir: Path,
    calibrator: Calibrator | None,
) -> Run:
    from repro.data import WALKTHROUGH_QUERY, generate_intel, intel_at_scale
    from repro.db import Database, Table
    from repro.errors import ReproError
    from repro.frontend import DBWipesSession

    run = Run(calibrator=calibrator)
    generated, __ = generate_intel(
        intel_at_scale(SCALES["intel_requery"], failure_onset_frac=0.7)
    )
    table_dir = workdir / "readings"
    generated.save(table_dir)
    # Flush the fresh files now, so kernel writeback of ~60 MB does not
    # compete with the timed cycles.
    for path in table_dir.rglob("*"):
        if path.is_file():
            with open(path, "rb") as handle:
                os.fsync(handle.fileno())
    minute = np.asarray(generated.column("minute"), dtype=np.int64)
    temp = np.asarray(generated.column("temp"), dtype=np.float64)
    del generated
    draws = low_discrepancy(np.random.default_rng(seed), [REQUERY_QUANTILES, (95.0, 130.0)])

    def fresh_session():
        start = time.perf_counter()
        table = Table.open(table_dir)
        run.open_s.append(time.perf_counter() - start)
        db = Database()
        db.register(table)
        session = DBWipesSession(db)
        session.execute(WALKTHROUGH_QUERY)
        return session

    warm = Run()
    for _ in range(SETUPS):
        run.calibrate()
        start = time.perf_counter()
        session = fresh_session()
        _requery_step(session, warm, 0.9, 110.0)
        session.undo_cleaning()
        run.setup(time.perf_counter() - start)

    deadline = time.perf_counter() + seconds
    block = 0
    while time.perf_counter() < deadline:
        run.calibrate()
        steps = [next(draws) for _ in range(3)]
        passes = [False] if tracer is None else [block % 2 == 0, block % 2 == 1]
        for traced in passes:
            applied: list[float] = []
            try:
                for index, (quantile, cut) in enumerate(steps):
                    request = 3 * block + index
                    with _Cycle(tracer, request, traced) as cycle:
                        _requery_step(session, run, quantile, cut)
                        applied.append(cut)
                        if index == 2:
                            for _ in range(3):
                                _timed(run, "undo", session.undo_cleaning)
                                applied.pop()
                            run.attempted += 3
                    if tracer is None:
                        run.cycle(cycle.seconds)
                    else:
                        (run.traced_cycles if traced else run.untraced_cycles).append(
                            cycle.seconds
                        )
                    expected = _expected_groups(minute, temp, applied)
                    if not _groups_match(session.result, expected):
                        run.wrong += 1
                        run.notes.append(f"step {request}: GROUP BY differs from numpy")
            except ReproError as error:
                run.failed += 1
                run.notes.append(f"block {block}: {type(error).__name__}: {error}")
                session = fresh_session()
        block += 1
    run.calibrate()
    if tracer is not None:
        run.cycles = list(run.traced_cycles)
    run.repeat_share = 0.0
    run.peak_rss_mb = _self_rss_mb()
    return run


WORKLOADS = {
    "intel_sweep": intel_sweep,
    "fec_served": fec_served,
    "intel_requery": intel_requery,
}


def prepare_workdir(root: Path) -> Path:
    """A fresh per-process scratch directory under ``root/.dbwbench``."""
    workdir = root / ".dbwbench" / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir
