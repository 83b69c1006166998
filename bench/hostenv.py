"""What every result records about the machine it ran on."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from time import perf_counter_ns

import numpy as np
import scipy

PROBE_CALLS = 400


def host_probe_us() -> float:
    """Median time of one fixed numpy call pattern, in microseconds.

    A QR factorisation and a product of the shape the detector's robust
    projection uses. It only shows how fast the host was around a run; no
    metric is ever rescaled by it.
    """
    rng = np.random.default_rng(20220531)
    a = rng.standard_normal((25, 8))
    x = rng.standard_normal(25)
    times = []
    for _ in range(PROBE_CALLS):
        t0 = perf_counter_ns()
        q, r = np.linalg.qr(a)
        np.linalg.solve(r, q.T @ x)
        times.append(perf_counter_ns() - t0)
    return statistics.median(times) / 1e3


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit(root) -> str:
    # The ceiling stops git from reporting an enclosing repository's commit
    # when the checkout itself is not a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
    }
