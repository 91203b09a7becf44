"""Host-speed calibration: a fixed kernel timed in a lean child process.

On a shared host the speed of the cores drifts: within seconds by about
±15%, and over ten minutes by up to 2x (the same apply step measured
0.14 s and then 0.25 s). CPU time tracks wall time, so the cores
themselves run slower while neighbours load the caches and memory.
No run is long enough to average that out, so the benchmark times a
fixed kernel between cycles, on the CPU the cycle ran on, and reports
each timing at a reference host speed:
``seconds * REFERENCE_S / kernel_s``, where ``kernel_s`` is the median of
the readings nearest in time (:func:`dbwbench.stats.host_scaled`). The
wall-clock values are reported beside them as ``raw.*``.

The kernel is one debug's learner work in miniature: stable argsorts,
cumulative sums and boundary scans over 50k values. It followed the
drift of all three workloads (run-to-run spreads of 0.03-0.07 scaled
against 0.08-0.19 unscaled, brush_p50_s on intel_sweep 0.11 against
0.14). A kernel over large arrays (a hashed unique of 100k keys, an
8 MB scan) swung further than the workloads did and over-corrected.

The kernel runs in a child process that imports only numpy, so nothing
the program under test does to its own interpreter (profiling hooks,
gc settings, threads, allocator state) changes the reading; only the
host does. Run as a script, this file is that child: each line on stdin
runs the kernel once and answers with its seconds on stdout; EOF ends it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

#: Seconds to wait for the child to exit once its stdin is closed.
STOP_TIMEOUT_S = 30.0
#: Kernel seconds that stand for the reference host speed: about the
#: median reading on the 2-vCPU KVM guest (Xeon, Sapphire Rapids) the
#: bounds were set on. It only scales the reported numbers.
REFERENCE_S = 0.030


def _inputs():
    import numpy as np

    return np.random.default_rng(0).random(50_000)


def kernel(sample) -> None:
    """Stable argsorts, cumulative sums and boundary scans over 50k values,
    the work the MDL and subgroup learners do over one debug's F."""
    import numpy as np

    for _ in range(4):
        order = np.argsort(sample, kind="stable")
        sums = np.cumsum(sample[order])
        np.flatnonzero(sums[1:] != sums[:-1])


def _current_cpu() -> int | None:
    """The CPU the calling thread last ran on (Linux), else ``None``."""
    try:
        with open("/proc/thread-self/stat") as handle:
            return int(handle.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class Calibrator:
    """The calibration child; :meth:`sample` takes one reading in it."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        #: (perf_counter time, kernel seconds) of every reading.
        self.readings: list[tuple[float, float]] = []

    def sample(self) -> float:
        # Each vCPU of a shared host has its own busy neighbours, so the
        # reading is taken on the CPU the timed work just ran on.
        cpu = _current_cpu()
        if cpu is not None:
            try:
                os.sched_setaffinity(self.proc.pid, {cpu})
            except OSError:
                pass
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process exited")
        seconds = float(line)
        self.readings.append((time.perf_counter(), seconds))
        return seconds

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve() -> None:
    sample = _inputs()
    for _ in range(3):
        kernel(sample)
    for _ in sys.stdin:
        # Reload the input into the caches the timed work evicted, so the
        # reading does not depend on the program's memory footprint.
        sample.sum()
        start = time.perf_counter()
        kernel(sample)
        sys.stdout.write(f"{time.perf_counter() - start!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
