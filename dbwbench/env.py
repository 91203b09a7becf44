"""The environment stamp written next to every benchmark result.

Run-to-run drift on a shared host is large, so each result records what
could explain it: which code ran (git sha when the tree is a git
checkout, and always a digest of ``src/``), how many cores the process
may use, and the Python, numpy and OpenBLAS versions and thread count.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def git_sha(root: Path) -> str | None:
    """``git rev-parse HEAD`` in ``root``, or None outside a git checkout."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest(src: Path) -> str:
    """blake2b over every ``*.py`` under ``src`` (path and bytes, sorted)."""
    digest = hashlib.blake2b(digest_size=12)
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _openblas() -> tuple[str | None, int | None]:
    """OpenBLAS version string and thread count of the loaded library."""
    import numpy as np

    version = None
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    if "openblas" in str(blas.get("name", "")).lower():
        version = blas.get("version")
    threads = None
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split()[-1]
                for line in maps
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
        if threads is not None:
            break
    return version, threads


def cpu_ticks() -> tuple[int, int]:
    """(total, steal) ticks of the aggregate ``cpu`` line of ``/proc/stat``.

    Steal is time the hypervisor gave this host's virtual CPUs to
    someone else: the share of it during a run is a direct measure of
    noisy neighbours.
    """
    try:
        with open("/proc/stat") as handle:
            values = [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return sum(values), values[7] if len(values) > 7 else 0


def stamp(root: Path, workload: str, seed: int, scale: int) -> dict:
    """Everything a reader needs to attribute a result to code and host."""
    import numpy as np

    openblas_version, openblas_threads = _openblas()
    return {
        "git_sha": git_sha(root),
        "src_digest": source_digest(root / "src"),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas_version,
        "openblas_threads": openblas_threads,
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "loadavg": list(os.getloadavg()),
    }
