"""Shared helpers of the benchmark: paths, child environment, statistics,
machine facts.

Nothing here imports numpy or aodkit, so the orchestrator stays light and
its set-up time is not mixed into what it measures.
"""

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CONFIG = os.path.join(ROOT, "configs", "paper_system.yaml")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

WORKLOADS = ("cli-reference", "lab-noisy", "design-sweep")

# Fitted switching dead time that counts as right, around the 342 ns transit
# time of the reference deflector.
SWITCH_WINDOW_NS = (200.0, 450.0)

# One thread of compute per process, BLAS included: the load is one
# closed-loop client, and a 2-core machine has no spare core for BLAS.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    for var in _THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("AODKIT_OUT", None)
    return env


def pin_threads():
    """Apply the thread limits to this process; call before importing numpy."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def check_checkout():
    """Raise unless the package and reference config of this checkout exist."""
    missing = [p for p in (os.path.join(SRC, "aodkit", "__init__.py"), CONFIG)
               if not os.path.isfile(p)]
    if missing:
        raise FileNotFoundError(
            "benchmark needs the aodkit sources next to it; missing: "
            + ", ".join(os.path.relpath(p, ROOT) for p in missing))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values):
    return float(statistics.median(values))


def tail(values, beyond=10):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, count)``: the ``beyond + 1``-th largest
    sample and the share of samples at or below it.  With ``beyond`` or
    fewer samples no such percentile exists and the smallest sample is
    returned, so the rule never switches to another statistic.
    """
    xs = sorted(values)
    n = len(xs)
    k = max(n - beyond - 1, 0)
    return float(xs[k]), 100.0 * (k + 1) / n, n


class PassClock:
    """Whole passes of ``period`` ops, ending at the pass boundary nearest
    ``seconds`` of timed work.

    A run then measures ``seconds`` give or take half a pass, never cuts a
    pass short, and does not jump to one more pass when the host is a
    little faster.  At least one pass always runs.
    """

    def __init__(self, period, seconds):
        self.period = period
        self.seconds = seconds
        self.start = self.pass_start = time.perf_counter()

    def more(self, k):
        """Whether op ``k`` (counting from 0) should run."""
        if k == 0 or k % self.period:
            return True
        now = time.perf_counter()
        last_pass = now - self.pass_start
        self.pass_start = now
        return now - self.start + 0.5 * last_pass < self.seconds


def rolling_window_medians(values, width):
    """Median of the sums of every run of ``width`` consecutive values."""
    sums = [sum(values[i:i + width]) for i in range(len(values) - width + 1)]
    return median(sums)


# ---------------------------------------------------------------------------
# Machine facts and output
# ---------------------------------------------------------------------------


def source_digest():
    """SHA-256 over the package sources, a commit stand-in outside git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "aodkit")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts():
    """Facts recorded beside every result."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "pyyaml": metadata.version("PyYAML"),
        "machine": platform.machine(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def write_json(path, payload):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
