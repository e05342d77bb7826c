"""LatencyBook against the raw-list recorders it replaced.

Phase latency used to be split from a raw ``(issued, latency)`` list,
and disturbance latency was binned into ``[count, sum]`` per delivery
window.  Both recorders survive here as oracles, and the book must
reproduce them key for key and float for float: latencies are integer
cycle counts, so a sketch's ``total / count`` is the same float as a
list's ``sum / len``.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.network.elastic import (
    BASELINE_WINDOWS,
    HORIZON_CYCLES,
    RECOVERY_TOLERANCE,
    delivery_book,
    disturbance_metrics,
    window_series,
)
from repro.network.packet import Packet
from repro.network.stats import LatencyBook, QuantileSketch, percentile, phase_latency

# -- the oracles: the raw-list recorders, as they were ------------------------


def phase_latency_oracle(samples, warmup, start, end):
    overall = []
    phases = {"baseline": [], "during": [], "after": []}
    for issued, latency in samples:
        if issued < warmup:
            continue
        overall.append(latency)
        if issued < start:
            phases["baseline"].append(latency)
        elif issued < end:
            phases["during"].append(latency)
        else:
            phases["after"].append(latency)
    out = {
        "fg_requests": len(overall),
        "fg_p50_overall": percentile(overall, 50),
        "fg_p99_overall": percentile(overall, 99),
    }
    for name, values in phases.items():
        out[f"fg_{name}_requests"] = len(values)
        out[f"fg_p50_{name}"] = percentile(values, 50)
        out[f"fg_p99_{name}"] = percentile(values, 99)
    base = out["fg_p99_baseline"]
    out["fg_slowdown_p99"] = out["fg_p99_during"] / base if base else 0.0
    return out


class WindowProbeOracle:
    """Measured delivered-packet latency as ``[count, sum]`` per window."""

    def __init__(self, window_cycles):
        self.window_cycles = window_cycles
        self._bins = {}

    def record(self, packet, now):
        if not packet.measured:
            return
        acc = self._bins.setdefault(now // self.window_cycles, [0, 0.0])
        acc[0] += 1
        acc[1] += packet.latency

    def series(self):
        return [
            {
                "window_start": b * self.window_cycles,
                "count": int(acc[0]),
                "mean_latency": acc[1] / acc[0],
            }
            for b, acc in sorted(self._bins.items())
        ]

    def mean_between(self, t0, t1):
        count, total = 0, 0.0
        for b, acc in self._bins.items():
            start = b * self.window_cycles
            if start >= t0 and start + self.window_cycles <= t1:
                count += acc[0]
                total += acc[1]
        return total / count if count else 0.0


def disturbance_oracle(probe, start, clear):
    w = probe.window_cycles
    baseline = probe.mean_between(start - BASELINE_WINDOWS * w, start)
    peak = 0.0
    recovery_cycles = None
    recovered = False
    saw_post_window = False
    horizon_end = clear + HORIZON_CYCLES
    for entry in probe.series():
        window = entry["window_start"]
        if window + w <= start or window >= horizon_end:
            continue
        peak = max(peak, entry["mean_latency"])
        if window >= clear:
            saw_post_window = True
        if (
            not recovered
            and baseline > 0.0
            and window >= clear
            and entry["mean_latency"] <= RECOVERY_TOLERANCE * baseline
        ):
            recovered = True
            recovery_cycles = window + w - clear
    if not saw_post_window:
        recovered = True
        recovery_cycles = 0
    return {
        "baseline_latency": baseline,
        "peak_latency": peak,
        "peak_ratio": (peak / baseline) if baseline > 0 else 0.0,
        "recovered": recovered,
        "recovery_cycles": recovery_cycles,
    }


# -- phase books: keyed by issue cycle, split after the run -------------------

_requests = st.lists(
    st.tuples(st.integers(0, 400), st.integers(0, 600)),  # (issue, latency)
    max_size=150,
)


def _boundary(data, samples):
    """Any cycle, or one that carries a sample (boundary ties)."""
    cycles = st.integers(-20, 450)
    if samples:
        cycles = cycles | st.sampled_from([issued for issued, _ in samples])
    return data.draw(cycles)


@given(samples=_requests, data=st.data())
def test_phase_latency_equals_raw_list_split(samples, data):
    warmup = _boundary(data, samples)
    start = _boundary(data, samples)
    end = start if data.draw(st.booleans()) else _boundary(data, samples)
    book = LatencyBook()
    for issued, latency in samples:
        book.record(issued, issued + latency)
    got = phase_latency(book, warmup, start, end)
    want = phase_latency_oracle(samples, warmup, start, end)
    assert list(got.items()) == list(want.items())
    kept = [latency for issued, latency in samples if issued >= warmup]
    assert book.merged(warmup, None).mean == (sum(kept) / len(kept) if kept else 0.0)


def test_phase_latency_of_an_empty_book_reads_zero():
    got = phase_latency(LatencyBook(), 0, 10, 20)
    assert got == phase_latency_oracle([], 0, 10, 20)
    assert got["fg_requests"] == 0 and got["fg_slowdown_p99"] == 0.0


# -- disturbance books: keyed by delivery window, width fixed before ----------


class _FakeSim:
    def __init__(self):
        self.callbacks = []

    def on_delivery(self, callback):
        self.callbacks.append(callback)


_deliveries = st.lists(
    st.tuples(st.integers(0, 3000), st.integers(0, 400), st.booleans()),
    max_size=150,
)


def _recorded(deliveries, window_cycles):
    sim = _FakeSim()
    book = delivery_book(sim, window_cycles)
    oracle = WindowProbeOracle(window_cycles)
    for now, latency, measured in deliveries:
        packet = Packet(src=0, dst=1, measured=measured)
        packet.inject_time = now - latency
        packet.arrive_time = now
        for callback in sim.callbacks:
            callback(packet, now)
        oracle.record(packet, now)
    return book, oracle


def _event_start(data, deliveries, w):
    """Any cycle, or one whose baseline span ``[start - BASELINE_WINDOWS
    * w, start)`` begins within a window of a delivery (edge windows)."""
    starts = st.integers(-100, 3200)
    if deliveries:
        near = st.tuples(st.sampled_from([now for now, _, _ in deliveries]), st.integers(-w, w))
        starts = starts | near.map(lambda pair: pair[0] + BASELINE_WINDOWS * w + pair[1])
    return data.draw(starts)


@given(deliveries=_deliveries, window_cycles=st.integers(1, 300), data=st.data())
def test_disturbance_metrics_equal_window_probe(deliveries, window_cycles, data):
    book, oracle = _recorded(deliveries, window_cycles)
    assert window_series(book, window_cycles) == oracle.series()
    start = _event_start(data, deliveries, window_cycles)
    clear = data.draw(st.integers(start, start + 1500))
    got = disturbance_metrics(book, window_cycles, start, clear)
    assert got == disturbance_oracle(oracle, start, clear)


@given(deliveries=_deliveries, window_cycles=st.integers(1, 300), data=st.data())
def test_window_ranges_equal_mean_between(deliveries, window_cycles, data):
    """``merged(ceil(t0 / w), t1 // w)`` holds the windows wholly in
    ``[t0, t1)``, the baseline of :func:`disturbance_metrics`."""
    book, oracle = _recorded(deliveries, window_cycles)
    t0 = data.draw(st.integers(-500, 3200))
    t1 = data.draw(st.integers(t0, 3500))
    got = book.merged(-(-t0 // window_cycles), t1 // window_cycles).mean
    assert got == oracle.mean_between(t0, t1)


# -- the on-demand total -------------------------------------------------------


@given(st.lists(st.integers(0, 10**9), max_size=200))
def test_sketch_total_equals_raw_sum(values):
    sketch = QuantileSketch()
    for value in values:
        sketch.add(value)
    assert sketch.total == float(sum(values))
    assert sketch.mean == (sum(values) / len(values) if values else 0.0)
