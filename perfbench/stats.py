"""Order statistics, run provenance and peak-memory readings.

Everything here is pure or reads only ``/proc`` and the checkout, so the
unit tests can exercise it without building an index.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
from pathlib import Path

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it; with fewer calls the reported percentile drops.
TAIL_BEYOND = 10
#: The tail percentile reported when a run has enough calls for it.
TAIL_TARGET = 99.0


def median(values: list[float]) -> float:
    """The median, 0.0 for an empty list."""
    return statistics.median(values) if values else 0.0


def nearest_rank(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by nearest rank; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile up to p99 with >= ``TAIL_BEYOND`` samples beyond.

    Returns ``(value, percentile, samples_beyond)``.  With 1000 or more
    samples this is the nearest-rank p99; with fewer it is the sample
    that has exactly ``TAIL_BEYOND`` larger-ranked samples, and the
    percentile it stands for.  With ``TAIL_BEYOND`` samples or fewer no
    percentile qualifies: the maximum is returned with 0 beyond it.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = min(math.ceil(TAIL_TARGET / 100.0 * n) - 1, n - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def host_info() -> dict:
    """The host facts a reading is only comparable under."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def commit_of(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git.

    A checkout exported without ``.git`` has no commit to report: None.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
