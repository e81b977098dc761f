"""Paths, process helpers and statistics shared by the benchmark scripts."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Working space for caches, traces and probe captures; removed after a run.
WORK = ROOT / ".pipebench-work"
DIGESTS = BENCH_DIR / "digests.json"

#: Input scale of the table workloads.  Every workload input generator
#: is at its clamped minimum here, so a smaller scale runs the same work.
TABLE_SCALE = 0.01

READY = "PIPEBENCH-READY"


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"pipebench: no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def emit(payload) -> None:
    """One JSON object on its own stdout line."""
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def signal_ready() -> None:
    """Print the ready line with ``time.monotonic()``, which is one
    system-wide clock, so the parent can time set-up from its spawn."""
    sys.stdout.write(f"{READY} {time.monotonic()!r}\n")
    sys.stdout.flush()


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_seconds(pid: int) -> float:
    """user+sys CPU of another live process, from ``/proc``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def diffs(start: float, stamps: List[float]) -> List[float]:
    """Intervals between consecutive completion stamps, from ``start``."""
    out = []
    previous = start
    for stamp in stamps:
        out.append(stamp - previous)
        previous = stamp
    return out
