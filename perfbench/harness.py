"""Measurement rules shared by every workload.

Small pieces, unit-tested on their own (``perfbench/tests``):

* :func:`check` -- a failed correctness check aborts the run; it is
  never turned into a metric;
* :class:`Metrics` -- the result's metrics, each reported once and
  finite;
* :func:`host_stamp` -- the host details a trace is stamped with.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics


class CheckFailed(RuntimeError):
    """A correctness check failed; the run reports ``correct: false``."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def git_sha(root: str = ".") -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def host_stamp() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
    }


class Metrics:
    """Ordered ``name -> {"value", "unit"}`` map printed in the result."""

    def __init__(self):
        self.values: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str) -> None:
        if name in self.values:
            raise ValueError(f"metric {name!r} reported twice")
        value = float(value)
        if not math.isfinite(value):
            raise CheckFailed(f"metric {name!r} is not finite: {value}")
        self.values[name] = {"value": value, "unit": unit}
