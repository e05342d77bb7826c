"""Simulation statistics: latency, throughput, energy, queue occupancy."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = [
    "LatencyAccumulator", "LatencyBook", "QuantileSketch", "SimStats", "percentile", "phase_latency"
]


def percentile(samples: list[float], q: float) -> float:
    """q-th percentile (0..100) by nearest-rank over *samples*.

    The virtual index ``q/100 * (n-1)`` is rounded half **up**, so the
    median of two samples is the upper one (plain ``round`` uses
    banker's rounding — ``round(0.5) == 0`` — which silently returned
    the lower sample).
    """
    if not samples:
        return 0.0
    data = sorted(samples)
    idx = int(q / 100.0 * (len(data) - 1) + 0.5)  # round half up (idx >= 0)
    idx = min(len(data) - 1, max(0, idx))
    return float(data[idx])


def phase_latency(
    book: LatencyBook, warmup: int, start: int, end: int
) -> dict[str, float | int]:
    """p50/p99 around a disturbance, from a book keyed by issue cycle.

    Keys before *warmup* are skipped; the rest split into *baseline*
    (issued before *start*), *during* (``[start, end)``) and *after*,
    exactly, however late the boundaries were chosen.
    ``fg_slowdown_p99`` is the during-to-baseline p99 ratio (0 without
    a baseline).
    """
    overall = book.merged(warmup, None)
    out: dict[str, float | int] = {
        "fg_requests": overall.count,
        "fg_p50_overall": overall.percentile(50),
        "fg_p99_overall": overall.percentile(99),
    }
    phases = {
        "baseline": book.merged(warmup, start),
        "during": book.merged(max(warmup, start), end),
        "after": book.merged(max(warmup, start, end), None),
    }
    for name, sketch in phases.items():
        out[f"fg_{name}_requests"] = sketch.count
        out[f"fg_p50_{name}"] = sketch.percentile(50)
        out[f"fg_p99_{name}"] = sketch.percentile(99)
    base = out["fg_p99_baseline"]
    out["fg_slowdown_p99"] = out["fg_p99_during"] / base if base else 0.0
    return out


class QuantileSketch:
    """Streaming quantile sketch over a value -> count histogram.

    Simulator latencies and hop counts are integer cycle counts drawn
    from a bounded range, so the histogram is *exact* and tiny: memory
    scales with the number of distinct values seen (thousands), not the
    number of samples (millions at 1296 nodes).  Percentiles match
    :func:`percentile` over the raw sample list bit-for-bit, which is
    what lets the sample-free mode guarantee identical ``SimStats``.
    """

    __slots__ = ("counts", "count")

    def __init__(self) -> None:
        self.counts: dict[float, int] = {}
        self.count = 0

    def add(self, value: float) -> None:
        self.count += 1
        counts = self.counts
        counts[value] = counts.get(value, 0) + 1

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold *other* into this sketch (cross-worker/tenant rollups).

        Exact by construction: summing the value -> count histograms
        yields the histogram of the concatenated sample streams, so
        percentiles of the merged sketch equal :func:`percentile` over
        the combined raw samples bit-for-bit (property-tested in
        ``tests/obs/test_sketch_merge.py``).  Returns ``self``.
        """
        counts = self.counts
        for value, n in other.counts.items():
            counts[value] = counts.get(value, 0) + n
        self.count += other.count
        return self

    def percentile(self, q: float) -> float:
        """Nearest-rank (round-half-up) percentile of the histogram."""
        if not self.count:
            return 0.0
        idx = int(q / 100.0 * (self.count - 1) + 0.5)
        idx = min(self.count - 1, max(0, idx))
        cumulative = 0
        value = 0.0
        for value, n in sorted(self.counts.items()):
            cumulative += n
            if cumulative > idx:
                break
        return float(value)

    @property
    def total(self) -> float:
        """Sum of the recorded values, computed on read (never in
        :meth:`add`, which runs once per hop on the hotspot path).
        Integer values sum exactly below 2**53, so this equals
        ``float(sum(raw))`` over the raw stream."""
        total = 0.0
        for value, n in self.counts.items():
            total += value * n
        return total

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @classmethod
    def merged(cls, sketches) -> QuantileSketch:
        """One new sketch of the concatenated streams of *sketches* (exact)."""
        out = cls()
        for sketch in sketches:
            out.merge(sketch)
        return out


class LatencyBook:
    """Exact latency sketches keyed by an integer cycle key.

    The one latency recorder of the phase and disturbance reports: a
    key is an issue cycle (phases, whose windows are known only after
    the run) or a delivery window index (disturbance series, whose
    width is fixed before it).  Memory grows with the number of keys,
    not of samples, and any key range regroups exactly at read time
    through :meth:`merged`.
    """

    __slots__ = ("sketches",)

    def __init__(self) -> None:
        self.sketches: dict[int, QuantileSketch] = defaultdict(QuantileSketch)

    def add(self, key: int, value: int) -> None:
        self.sketches[key].add(value)

    def record(self, issued: int, now: int) -> None:
        """Add one request issued at *issued* and done at *now*, keyed by
        its issue cycle (the key of every phase book)."""
        self.add(issued, now - issued)

    def merged(self, lo: int | None, hi: int | None) -> QuantileSketch:
        """One sketch over the keys in ``[lo, hi)`` (None: unbounded)."""
        return QuantileSketch.merged(
            sketch
            for key, sketch in self.sketches.items()
            if (lo is None or key >= lo) and (hi is None or key < hi)
        )


@dataclass
class LatencyAccumulator:
    """Streaming mean/percentile-friendly latency accumulator.

    Two storage modes share one interface, chosen by ``sketch``: with
    none (the default) it keeps raw samples (exact percentiles, O(n)
    memory); the sample-free mode (:meth:`sample_free`) folds values
    into a :class:`QuantileSketch` so large sweeps do not hold millions
    of floats, and leaves ``samples`` empty.
    """

    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    maximum: float = 0.0
    samples: list[float] = field(default_factory=list)
    sketch: QuantileSketch | None = None

    @classmethod
    def sample_free(cls) -> "LatencyAccumulator":
        """An accumulator that sketches percentiles instead of storing
        samples (opt-in for large-scale runs)."""
        return cls(sketch=QuantileSketch())

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.total_sq += value * value
        if value > self.maximum:
            self.maximum = value
        if self.sketch is None:
            self.samples.append(value)
        else:
            self.sketch.add(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        var = self.total_sq / self.count - self.mean**2
        return math.sqrt(max(0.0, var))

    def percentile(self, q: float) -> float:
        """q-th percentile (0..100) of recorded samples."""
        if self.sketch is not None:
            return self.sketch.percentile(q)
        return percentile(self.samples, q)


@dataclass
class SimStats:
    """Aggregate results of one simulation run.

    Only packets flagged ``measured`` (injected inside the measurement
    window) contribute to latency/hop statistics; energy counts all
    traffic, since power is a whole-run property.  ``sent`` counts every
    packet handed to the simulator (measured or not), so conservation
    can be checked at any time: ``sent == delivered + dropped +
    in-flight``.  ``dropped`` stays zero outside fault-injection runs —
    plain simulation never loses a packet — so the familiar
    ``sent == delivered`` invariant is unchanged there.
    """

    sent: int = 0
    injected: int = 0
    delivered: int = 0
    dropped: int = 0
    measured_delivered: int = 0
    flit_hops: int = 0
    bit_hops: float = 0.0
    dram_bits: float = 0.0
    fallback_hops: int = 0
    total_hops: int = 0
    deadlock_recoveries: int = 0
    emergency_loans: int = 0
    latency: LatencyAccumulator = field(default_factory=LatencyAccumulator)
    hops: LatencyAccumulator = field(default_factory=LatencyAccumulator)
    measure_cycles: int = 0
    num_nodes: int = 0
    queue_samples: int = 0
    queue_total: float = 0.0

    @classmethod
    def sample_free(cls) -> "SimStats":
        """Stats whose latency/hop accumulators sketch percentiles
        instead of storing every sample (1296-node sweeps)."""
        return cls(
            latency=LatencyAccumulator.sample_free(),
            hops=LatencyAccumulator.sample_free(),
        )

    @property
    def avg_latency(self) -> float:
        """Mean end-to-end packet latency (cycles) of measured packets."""
        return self.latency.mean

    @property
    def avg_hops(self) -> float:
        """Mean hop count of measured packets."""
        return self.hops.mean

    @property
    def throughput_flits_per_node_cycle(self) -> float:
        """Delivered measured flits per node per measurement cycle."""
        if not (self.measure_cycles and self.num_nodes):
            return 0.0
        return self.flit_hops_delivered / (self.measure_cycles * self.num_nodes)

    # flit_hops counts flit*hop products for energy; delivered flits for
    # throughput are tracked separately:
    flit_delivered: int = 0

    @property
    def flit_hops_delivered(self) -> float:
        return float(self.flit_delivered)

    @property
    def in_flight(self) -> int:
        """Packets sent but neither delivered nor dropped (conservation)."""
        return self.sent - self.delivered - self.dropped

    @property
    def accepted_rate(self) -> float:
        """Delivered/injected ratio of measured packets (1.0 = stable)."""
        if not self.injected:
            return 1.0
        return self.measured_delivered / self.injected

    @property
    def avg_queue_occupancy(self) -> float:
        """Mean sampled output-queue occupancy (packets)."""
        if not self.queue_samples:
            return 0.0
        return self.queue_total / self.queue_samples

    def network_energy_pj(self, pj_per_bit_hop: float) -> float:
        """Dynamic network energy (pJ) from bit-hop accounting."""
        return self.bit_hops * pj_per_bit_hop

    def dram_energy_pj(self, pj_per_bit: float) -> float:
        """Dynamic DRAM energy (pJ) from bits read/written."""
        return self.dram_bits * pj_per_bit

    def summary(self) -> dict[str, float]:
        """Flat dict of headline metrics (handy for benches/tables)."""
        return {
            "injected": float(self.injected),
            "delivered": float(self.delivered),
            "avg_latency": self.avg_latency,
            "p95_latency": self.latency.percentile(95),
            "avg_hops": self.avg_hops,
            "accepted_rate": self.accepted_rate,
            "fallback_hops": float(self.fallback_hops),
            "avg_queue": self.avg_queue_occupancy,
        }
