"""Statistics, provenance, host-speed and process helpers.

Nothing here imports :mod:`repro`; the workload modules do, after
``run.py`` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: Scratch directory for logs, span files and result files.  It lives
#: inside the checkout and is listed in the root ``.gitignore``.
RUN_DIR = ROOT / ".bench_run"

#: A percentile is reported only when at least this many samples lie
#: beyond it (above it, for an upper percentile).
MIN_BEYOND = 10

#: Seconds :func:`probe_s` takes when the host runs at its usual speed
#: (the median over calm runs on a 2-vCPU x86_64 VM).  Only ratios to
#: it matter.
PROBE_REFERENCE_S = 0.005


def probe_s() -> float:
    """Time a fixed mix of small-array numpy and interpreter work.

    The appliance and serving paths are work of this kind.  On a shared
    host the speed of the same code moves by up to 2x for minutes at a
    time; the probe, run between repetitions, moves with it, so the
    CPU-bound metrics are reported at the reference speed (see
    :func:`slowdown`) and a slow phase of the host does not read as a
    slow program.  The fastest of three passes is kept, so that an
    interrupt during one pass does not count.  Probe only while the
    program under test is idle: on a two-vCPU host the other vCPU's load
    slows this one.
    """
    x = np.linspace(0.0, 1.0, 300).reshape(100, 3)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(300):
            acc += float(x[i % 50:i % 50 + 50].std(axis=0).sum())
            acc += len(json.dumps({"i": i, "v": [acc, i]}))
        best = min(best, time.perf_counter() - t0)
    return best


def slowdown(probes: Sequence[float]) -> float:
    """How much slower than the reference the host ran: the median probe
    over :data:`PROBE_REFERENCE_S`.  CPU-bound times are divided by it,
    rates multiplied."""
    return median(probes) / PROBE_REFERENCE_S


def quantile(values: Sequence[float], p: float) -> float:
    """The *p*-quantile (0..1) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    pos = p * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == ordered[lo]:  # also keeps inf (a missed request)
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def supported(n: int, p: float) -> bool:
    """Whether an *n*-sample set supports the *p*-quantile.

    At least :data:`MIN_BEYOND` samples must lie beyond the quantile,
    that is ``n * (1 - p) >= MIN_BEYOND`` (with a small slack for the
    binary representation of ``p``).
    """
    return n * (1.0 - p) >= MIN_BEYOND - 1e-9


def percentile_or_none(values: Sequence[float], p: float) -> Optional[float]:
    """The *p*-quantile when the sample supports it, else ``None``."""
    if not supported(len(values), p):
        return None
    return quantile(values, p)


def chunked_percentiles(chunks: Sequence[Sequence[float]]
                        ) -> "tuple[float, float]":
    """The median over chunks of each chunk's p50, and the lower quartile
    over chunks of each chunk's p99.

    On a shared host the whole machine stalls for tens of milliseconds
    every few seconds; a stall sets the p99 of the chunk it hits.  The
    p99 summary therefore discounts up to three quarters of the chunks.
    A chunk too small to support its p99 is left out of the p99; with
    none left the p99 is NaN (not measured).
    """
    p50s = [quantile(c, 0.5) for c in chunks if len(c)]
    p99s = [quantile(c, 0.99) for c in chunks if supported(len(c), 0.99)]
    return (median(p50s) if p50s else math.nan,
            quantile(p99s, 0.25) if p99s else math.nan)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def self_rss_peak_mb() -> float:
    """Peak resident memory of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_rss_peak_mb(pid: int) -> Optional[float]:
    """Peak resident memory (``VmHWM``) of a live process, in MiB."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and content, sorted."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or ``None`` when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def cpu_ticks() -> List[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (empty elsewhere)."""
    try:
        return [int(x) for x in Path("/proc/stat").read_text()
                .splitlines()[0].split()[1:]]
    except (OSError, ValueError, IndexError):
        return []


def steal_share(before: List[int], after: List[int]) -> Optional[float]:
    """Share of CPU time the hypervisor took from this machine between
    two :func:`cpu_ticks` readings; high values mean noisy numbers."""
    if len(before) < 8 or len(after) < 8:
        return None
    total = sum(after[:8]) - sum(before[:8])
    return (after[7] - before[7]) / total if total > 0 else None


def provenance(workload: str, seed: int, seconds: int, trace: bool,
               input_size: Dict[str, object]) -> Dict[str, object]:
    """Where and on what a result was measured."""
    import numpy
    affinity: List[int] = (sorted(os.sched_getaffinity(0))
                           if hasattr(os, "sched_getaffinity") else [])
    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "input_size": input_size,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def child_env() -> Dict[str, str]:
    """Environment for a child Python process running the checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env.pop("REPRO_PARALLEL", None)
    env["PYTHONUNBUFFERED"] = "1"
    return env


