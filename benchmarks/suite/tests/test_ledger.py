"""Span ledger: exact self time, attribution, and reconciliation."""

from __future__ import annotations

import pytest
from ledger import (
    SPAN_TARGETS,
    Ledger,
    Tracing,
    attribute,
    calibrate,
    common_layers,
    delta,
    in_situ_scale,
    layer_of_key,
    layer_of_module,
    trace_metrics,
)


class FakeClock:
    """Advances by one tick per read, plus explicit work."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 1
        return self.now

    def work(self, ticks: int) -> None:
        self.now += ticks


def rows(ledger: Ledger) -> dict[str, tuple[int, int, int]]:
    """key -> (calls, self_ns, incl_ns)."""
    return {
        key: (ledger.calls[i], ledger.self_ns[i], ledger.incl_ns[i])
        for i, key in enumerate(ledger.keys)
    }


def test_nested_spans_have_exact_self_time():
    clock = FakeClock()
    ledger = Ledger(clock=clock)
    inner = ledger.wrap("b/inner", lambda: clock.work(10))

    def outer_body():
        clock.work(5)
        inner()
        clock.work(7)

    outer = ledger.wrap("a/outer", outer_body)
    outer()
    got = rows(ledger)
    # inner: start read, 10 ticks of work, end read -> 11 ticks.
    assert got["b/inner"] == (1, 11, 11)
    # outer: 5 + 7 of work, the inner span's 12 ticks (its start read
    # included) and its own end read: 25 ticks, 11 of them inner.
    assert got["a/outer"] == (1, 25 - 11, 25)
    assert ledger.top == [25, 1, 0]
    assert ledger.child_spans[ledger.key("a/outer")] == 1
    # self times telescope to the root's duration exactly
    assert sum(ledger.self_ns) == ledger.top[0]


def test_recursion_counts_inclusive_time_once():
    clock = FakeClock()
    ledger = Ledger(clock=clock)

    def fact(n):
        clock.work(3)
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = ledger.wrap("r/fact", fact)
    assert wrapped(4) == 24
    calls, self_ns, incl_ns = rows(ledger)["r/fact"]
    assert calls == 4
    # each level owns 3 ticks of work, its end read and (but for the
    # innermost) its child's start read
    assert self_ns == 4 * 5 - 1
    assert incl_ns == self_ns == ledger.top[0]
    parents = [span[4] for span in ledger.spans]
    ids = [span[3] for span in ledger.spans]
    # innermost closes first; each span's parent is the next level out
    assert parents[:-1] == ids[1:] and parents[-1] == -1


def test_raising_span_is_closed_and_exception_propagates():
    clock = FakeClock()
    ledger = Ledger(clock=clock)

    def boom():
        clock.work(4)
        raise KeyError("x")

    failing = ledger.wrap("e/boom", boom)

    def caller():
        with pytest.raises(KeyError):
            failing()
        clock.work(2)

    ledger.wrap("e/caller", caller)()
    got = rows(ledger)
    assert got["e/boom"] == (1, 5, 5)
    assert ledger.stack == []
    assert sum(ledger.self_ns) == ledger.top[0]


def test_raw_spans_stop_at_cap_but_aggregates_continue():
    ledger = Ledger(max_spans=3)
    noop = ledger.wrap("n/noop", lambda: None)
    for _ in range(10):
        noop()
    assert len(ledger.spans) == 3
    assert ledger.calls[ledger.key("n/noop")] == 10
    assert ledger.snapshot()["recorded"] == 3


def test_attribute_reconciles_to_root_exactly():
    """Corrected layer self times + wrapper cost + unattributed == root."""
    clock = FakeClock()
    ledger = Ledger(clock=clock)
    leaf = ledger.wrap("x/leaf", lambda: clock.work(20))

    def mid():
        clock.work(3)
        leaf()
        leaf()

    middle = ledger.wrap("y/mid", mid)
    before = ledger.snapshot()
    start = clock()
    middle()
    clock.work(9)  # work outside every span
    middle()
    root_ns = clock() - start
    region = attribute(
        delta(ledger.snapshot(), before),
        {"span_ns": 1.5, "span_unrecorded_ns": 1.0, "span_inside_ns": 0.5,
         "registration_ns": 0.5},
        root_ns,
    )
    total = (sum(row["self_ns"] for row in region["layers"].values())
             + region["wrapper_ns"] + region["unattributed_ns"])
    assert total == pytest.approx(root_ns, abs=1e-9)
    assert region["spans"] == 6
    # each mid owns 3 ticks of work, its leaves' start reads and its end
    # read, less the cost inside its own span (0.5) and the cost outside
    # the two leaf spans it encloses (1.5 - 0.5 each)
    assert region["keys"]["y/mid"]["self_ns"] == pytest.approx(2 * 6 - 2 * (0.5 + 2 * 1.0))
    # each leaf pays the cost inside its own span
    assert region["keys"]["x/leaf"]["self_ns"] == pytest.approx(4 * 21 - 4 * 0.5)
    # 12 ticks between and around the two mids, less their cost outside
    assert region["unattributed_ns"] == pytest.approx(12 - 2 * 1.0)


def test_calibration_splits_span_cost_around_the_clock_reads():
    calib = calibrate(n=5000, trials=3)
    assert 0 < calib["span_inside_ns"] < calib["span_ns"]
    assert calib["span_unrecorded_ns"] > 0 and calib["registration_ns"] > 0


def test_in_situ_scale_spreads_the_measured_overhead_by_spans():
    """With the overhead measured against an untraced run, the corrected
    self times add up to that run, and each key pays for the spans it
    opened."""
    clock = FakeClock()
    ledger = Ledger(clock=clock)
    leaf = ledger.wrap("x/leaf", lambda: clock.work(20))

    def mid():
        clock.work(30)
        for _ in range(4):
            leaf()

    middle = ledger.wrap("y/mid", mid)
    start = clock()
    middle()
    root_ns = clock() - start
    calib = {"span_ns": 1.0, "span_unrecorded_ns": 1.0, "span_inside_ns": 0.0,
             "registration_ns": 0.0}
    raw = delta(ledger.snapshot(), Ledger().snapshot())
    reference_ns = root_ns - 15  # tracing added 15 ticks: 3 per span
    scale = in_situ_scale(raw, calib, root_ns - reference_ns)
    assert scale == pytest.approx(3.0)
    region = attribute(raw, calib, root_ns, scale)
    assert region["wrapper_ns"] == pytest.approx(15)
    layers = sum(row["self_ns"] for row in region["layers"].values())
    assert layers + region["unattributed_ns"] == pytest.approx(reference_ns)
    # mid opened the 4 leaf spans: it pays 4 x 3; its own span is paid
    # outside every span
    assert region["keys"]["y/mid"]["self_ns"] == pytest.approx(raw["self_ns"][1] - 12)
    assert region["outside_ns"] == pytest.approx(3)
    assert region["negative_ns"] == 0


def test_trace_metrics_flag_noisy_references_and_overcharged_keys():
    region = {"wrapper_ns": 2e9, "negative_ns": 0.0, "scale": 2.0, "spans": 10}
    metrics, reasons = trace_metrics(region, 1e9, 2e9, (10e9, 10.2e9), 8e9)
    assert reasons == []
    # the mean of the references is off by at most half their difference
    assert metrics["bench.trace.noise_frac"] == pytest.approx(0.1 / 10.1)
    assert metrics["bench.trace.unexplained_frac"] == pytest.approx(1 / 10.1)
    assert metrics["bench.trace.overhead_frac"] == pytest.approx(2 / 10.1)
    _, reasons = trace_metrics(region, 1e9, 2e9, (10e9, 12e9), 8e9)
    assert len(reasons) == 1 and "references uncertain" in reasons[0]
    _, reasons = trace_metrics({**region, "negative_ns": 0.5e9}, 1e9, 2e9,
                               (10e9, 10e9), 8e9)
    assert len(reasons) == 1 and "below zero" in reasons[0]


def test_common_layers_leave_out_per_call_times_of_idle_layers():
    region = {
        "keys": {"network.policies/forward": {"calls": 8, "self_ns": 4000.0}},
        "layers": {"network.simulator": {"self_ns": 6000.0, "calls": 1},
                   "network.policies": {"self_ns": 4000.0, "calls": 8}},
    }
    setup = {"layers": {"topologies": {"self_ns": 2e9, "calls": 1}}}
    counters = {"delivered": 4, "events": 40, "elided": 10, "recoveries": 0,
                "measured": 2, "total_hops": 6}
    out = common_layers(region, setup, counters, 10_000.0)
    assert out["network.policies.forward_self_us"] == pytest.approx(0.5)
    assert out["network.simulator.hops_per_pkt"] == 3
    assert out["topologies.build_s"] == 2
    assert "memory.self_us_per_call" not in out
    # a layer that ran no span still has its (zero) share
    assert out["service.core.share"] == 0
    assert out["network.simulator.share"] + out["network.policies.share"] == 1


def test_callbacks_are_keyed_by_module_layer():
    ledger = Ledger()

    def local_callback(now):
        return now + 1

    wrapped = ledger.wrap_callback(local_callback)
    assert wrapped(1) == 2
    assert ledger.keys[-1].endswith("/test_callbacks_are_keyed_by_module_layer."
                                    "<locals>.local_callback")
    assert ledger.wrap_callback(None) is None
    assert layer_of_module("repro.traffic.injection") == "traffic"
    assert layer_of_module("repro.workloads.interference") == "traffic"
    assert layer_of_module("repro.memory.migration") == "memory.migration"
    assert layer_of_module("repro.service.core") == "service.core"
    assert layer_of_module("repro.topologies.registry") == "topologies.registry"
    assert layer_of_key("network.policies/forward") == "network.policies"


def test_tracing_installs_and_restores_every_target():
    import importlib

    from repro.network.simulator import NetworkSimulator

    originals = {
        (cls, name): getattr(importlib.import_module(module), cls).__dict__[name]
        for module, cls, names, _ in SPAN_TARGETS for name in names
    }
    schedule = NetworkSimulator.__dict__["schedule"]
    with Tracing(Ledger()):
        assert NetworkSimulator.__dict__["schedule"] is not schedule
        assert NetworkSimulator.__dict__["run"] is not originals[("NetworkSimulator", "run")]
    assert NetworkSimulator.__dict__["schedule"] is schedule
    for module, cls, names, _ in SPAN_TARGETS:
        klass = getattr(importlib.import_module(module), cls)
        for name in names:
            assert klass.__dict__[name] is originals[(cls, name)]


def test_traced_simulation_is_bit_identical_and_attributed():
    """Tracing observes only: the same run gives the same statistics."""
    from repro.topologies.registry import make_policy, make_topology
    from repro.traffic.injection import run_synthetic
    from repro.traffic.patterns import make_pattern

    def once():
        topo = make_topology("SF", 36, seed=0)
        return run_synthetic(
            topo, make_policy(topo), make_pattern("uniform_random", topo.active_nodes),
            0.1, warmup=20, measure=100, drain_limit=2000, seed=3,
        )

    bare = once()
    ledger = Ledger()
    with Tracing(ledger):
        traced = once()
    assert (traced.sent, traced.delivered, traced.latency.samples) == (
        bare.sent, bare.delivered, bare.latency.samples)
    layers = {layer_of_key(k) for i, k in enumerate(ledger.keys) if ledger.calls[i]}
    assert {"topologies", "core.routing", "network.simulator",
            "network.policies", "traffic"} <= layers
    assert ledger.stack == []
