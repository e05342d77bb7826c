"""Host-speed reference: a fixed kernel sampled on the measured core.

    python3 benchmarks/suite/hostref.py --core 1 --out out/ref.txt

The shared host this benchmark runs on changes speed by up to 1.8x
within a minute, and stays slow or fast for 5 s to several minutes: a
neighbour's load on the same physical core slows ours, with no steal
time to show for it (see README.md).  No run length averages that out,
so the timings the benchmark gates are expressed at a fixed host speed.

A sampler process, pinned to the core that runs the measured code, runs
a short burst of a frozen pure-Python kernel every :data:`PERIOD_S` and
records the kernel's speed in operations per CPU microsecond.  A CPU
time taken over ``[t0, t1]`` is multiplied by the mean speed sampled in
that interval over :data:`NOMINAL_OPS_PER_US`: the time the same work
would take on a host that runs the kernel at the nominal speed.

The kernel is shaped like the simulator's hot path (a heap of event
tuples, dict counters, slotted objects, a bounded deque), plus two
dependent loads per iteration from a table far larger than the core's
L2.  Pure interpreter loops slow down more than the simulator does when
the core is shared; the loads bring the kernel's slowdown in line with
the workloads' (README.md gives the fit).  It lives here, outside
``src/``, so no change to the code under test moves it.  It is frozen:
editing it, its table, the burst size or the nominal speed changes
every adjusted number, so that is a benchmark change of its own.
"""

from __future__ import annotations

import argparse
import heapq
import os
import statistics
import subprocess
import sys
import time
from array import array
from collections import deque
from pathlib import Path

import common

#: Kernel iterations per burst: 2-4 ms of CPU.
BURST_OPS = 1500
#: Seconds between bursts (~3% of the core).
PERIOD_S = 0.1
#: The kernel walks a cycle of 2**CHAIN_BITS int32 slots (32 MiB): far
#: beyond the core's L2, as the simulator's heaps and tables are.
CHAIN_BITS = 23
#: Intervals shorter than this are widened around their middle, so a
#: short set-up still averages twenty samples; the host's speed holds
#: for 5 s or more.
MIN_WINDOW_S = 2.0
#: The kernel speed that adjusted timings are expressed at: about what
#: a 2.0 GHz Xeon vCPU of the baseline host gives with its physical
#: core to itself.
NOMINAL_OPS_PER_US = 0.6


class _Node:
    __slots__ = ("sent", "load", "last")

    def __init__(self) -> None:
        self.sent = 0
        self.load = 0
        self.last = 0


def chain(bits: int = CHAIN_BITS) -> array:
    """A single cycle through all 2**bits slots: slot i holds the next
    slot, a full-period LCG step (a = 1 mod 4, c odd) whose strides no
    prefetcher follows."""
    import numpy as np

    slots = (np.arange(1 << bits, dtype=np.int64) * 1103515245 + 12345) & ((1 << bits) - 1)
    out = array("i")
    out.frombytes(slots.astype(np.int32).tobytes())
    return out


def kernel(ops: int, links: array) -> int:
    """One burst of the frozen reference work over the cycle *links*;
    returns a checksum."""
    heap: list[tuple[int, int, int]] = []
    push = heapq.heappush
    pop = heapq.heappop
    nodes = [_Node() for _ in range(64)]
    counts: dict[int, int] = {}
    ring: deque = deque(maxlen=32)
    x = 0x2545F491
    at = 0
    for seq in range(ops):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        at = links[links[at]]
        push(heap, ((x >> 8) & 0x3FF, seq, (x ^ at) & 63))
        if len(heap) > 256:
            when, _seq, dst = pop(heap)
            node = nodes[dst]
            node.sent += 1
            node.load = (node.load + when) & 0xFFFF
            node.last = when
            counts[dst] = counts.get(dst, 0) + 1
            ring.append((when, dst))
    return sum(n.load for n in nodes) + len(counts) + len(ring) + at


def cores() -> tuple[int, int]:
    """(measured core, other core) from this process's CPU set.

    The measured code and the sampler share the first; a daemon's load
    generator takes the second.  With one CPU both are the same.
    """
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-1], allowed[0]


def sample(core: int, out: Path) -> None:
    """The sampler process body: pin, then burst every PERIOD_S until
    terminated.  Each line is ``<perf_counter at the burst's middle>
    <ops per CPU us>``; perf_counter is CLOCK_MONOTONIC, which every
    process shares."""
    os.sched_setaffinity(0, {core})
    links = chain()
    with out.open("w", buffering=1) as sink:
        while True:
            start = time.perf_counter()
            cpu0 = time.process_time_ns()
            kernel(BURST_OPS, links)
            cpu_ns = time.process_time_ns() - cpu0
            mid = (start + time.perf_counter()) / 2
            sink.write(f"{mid:.6f} {BURST_OPS * 1e3 / max(cpu_ns, 1):.6f}\n")
            time.sleep(PERIOD_S)


class Reference:
    """The sampler, running on *core* for the life of a ``with`` block.

    Ask for :meth:`factor` once the block has ended.
    """

    def __init__(self, core: int, name: str) -> None:
        self.core = core
        self.path = common.OUT / f"hostref-{os.getpid()}-{name}.txt"
        self.samples: list[tuple[float, float]] = []
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> Reference:
        common.OUT.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--core", str(self.core), "--out", str(self.path)],
            cwd=common.ROOT, preexec_fn=common.child_setup(),
        )
        # Let the sampler start before anything is measured.
        deadline = time.monotonic() + 30.0
        while not self._read():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.__exit__()
                raise RuntimeError("host reference sampler did not start")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        """End the sampler, wait for it, and keep its samples."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._read()
        self.path.unlink(missing_ok=True)

    def _read(self) -> list[tuple[float, float]]:
        if self.path.is_file():
            lines = self.path.read_text().splitlines()
            # A line cut short by termination has fewer fields.
            self.samples = [(float(t), float(v))
                            for t, v in (line.split() for line in lines
                                         if len(line.split()) == 2)]
        return self.samples

    def speed(self, t0: float, t1: float) -> float:
        """Mean kernel speed (ops per CPU us) sampled in [t0, t1],
        widened to at least MIN_WINDOW_S around its middle."""
        pad = max(0.0, MIN_WINDOW_S - (t1 - t0)) / 2
        inside = [v for t, v in self.samples if t0 - pad <= t <= t1 + pad]
        if not inside:
            raise RuntimeError(f"no host reference samples in [{t0:.1f}, {t1:.1f}]")
        return statistics.fmean(inside)

    def factor(self, t0: float, t1: float) -> float:
        """Multiply a CPU time taken over [t0, t1] by this to express it
        at the nominal host speed."""
        return self.speed(t0, t1) / NOMINAL_OPS_PER_US

    def summary(self) -> dict[str, float]:
        """Core, sample count and the median sampled speed."""
        speeds = [v for _, v in self.samples]
        return {
            "core": self.core,
            "samples": len(speeds),
            "median_ops_per_us": statistics.median(speeds) if speeds else 0.0,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--core", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sample(args.core, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
