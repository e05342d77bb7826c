"""Shared pieces of the benchmark suite: paths, metric table, host facts.

Every number the suite gates is declared once in :data:`END_TO_END`:
its unit, which direction is better, and the regression bound (a share
of the baseline median) that ``compare.py`` applies.  The subset that
every workload reports and that is never zero is also listed in the
repository's ``BENCHMARK.json``.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
#: Scratch output (per-run results, ledgers, Chrome traces); gitignored.
OUT = SUITE / "out"

WORKLOADS = ("core_uniform", "core_incast_qos", "elastic_migrate", "daemon")


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric and its regression rule."""

    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: float  # allowed worsening, as a share of the baseline median
    floor: float = 0.0  # absolute slack added to the bound
    workloads: tuple[str, ...] = WORKLOADS


#: Bounds confirmed against two sets of ten runs at head on a shared
#: 2-core host whose speed changes by up to 1.8x within a minute; see
#: README.md.  setup_s and us_per_pkt are adjusted to a fixed host speed
#: (hostref.py); the daemon's wall-clock metrics are not, so their
#: bounds are wider than first proposed (10% for req_per_s and p50).
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, floor=0.15),
    Metric("us_per_pkt", "us", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    # Any increase in the failure share is a regression.
    Metric("failed_frac", "frac", "lower", 0.0),
    Metric("req_per_s", "1/s", "higher", 0.20, workloads=("daemon",)),
    Metric("p50_ms", "ms", "lower", 0.20, workloads=("daemon",)),
    Metric("p99_ms", "ms", "lower", 0.30, workloads=("daemon",)),
    Metric("open_p50_ms", "ms", "lower", 0.25, workloads=("daemon",)),
    Metric("open_p90_ms", "ms", "lower", 0.25, workloads=("daemon",)),
)

#: The daemon's latency limit on the closed-loop p99.
P99_LIMIT_MS = 10.0

#: Stand-alone set-ups repeat until they have taken this long (at least
#: two); the median of them and the set-ups that open each measured
#: episode or pass is ``setup_s``.  Cheap set-ups so get many samples.
SETUP_SECONDS = 2.0


def more_setups(walls: list[float]) -> bool:
    """Whether another stand-alone set-up is due after those timed."""
    return len(walls) < 2 or sum(walls) < SETUP_SECONDS


#: prctl option: the signal a child gets when its parent exits.
_PR_SET_PDEATHSIG = 1


def child_setup(core: int | None = None):
    """A ``preexec_fn`` for the processes the suite starts: the child is
    sent SIGTERM if its parent dies without stopping it (a killed run
    leaves nothing behind), and runs on *core* when one is given."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl

    def setup() -> None:
        prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
        if core is not None:
            os.sched_setaffinity(0, {core})

    return setup


def use_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or exit 1.

    The benchmark measures the source tree next to it, never an
    installed copy, so a directory without ``src/repro`` is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def canary(seconds: float) -> dict[str, float]:
    """Median throughput of the frozen canary over >= *seconds* of passes."""
    from repro.obs.canary import run_canary

    samples: list[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples) < 3:
        samples.append(run_canary(repeats=1)["kops"])
    return {"kops": statistics.median(samples), "passes": len(samples)}


def git_sha(root: Path = ROOT) -> str:
    """Commit of the checkout, read from ``.git`` ("unknown" outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts() -> dict[str, object]:
    """What every output records next to its numbers."""
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
