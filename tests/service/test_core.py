"""FabricService core: request path, admission control, accounting."""

from __future__ import annotations

import pytest

from repro.network.stats import percentile
from repro.service.core import FabricService


def small_service(**overrides):
    params = dict(nodes=36, design="SF", footprint_pages=64)
    params.update(overrides)
    return FabricService(**params)


class TestRequestPath:
    def test_read_completes_with_latency(self):
        svc = small_service()
        req = svc.submit("a", "read", 5)
        svc.advance(5_000)
        assert req.status == "done"
        assert req.latency is not None and req.latency > 0

    def test_write_completes(self):
        svc = small_service()
        req = svc.submit("a", "write", 7, offset=128, size=256)
        svc.advance(5_000)
        assert req.status == "done"

    def test_latency_includes_queue_wait(self):
        # With outstanding budget 1, the second request's latency
        # starts at its submit time, not its injection time.
        svc = small_service(max_outstanding=1)
        first = svc.submit("a", "read", 1)
        second = svc.submit("a", "read", 2)
        assert second.status == "queued"
        svc.advance(10_000)
        assert first.status == "done" and second.status == "done"
        assert second.latency > first.latency

    def test_on_done_fires_exactly_once(self):
        svc = small_service()
        fired = []
        svc.submit("a", "read", 3, on_done=lambda r: fired.append(r.status))
        svc.advance(5_000)
        svc.drain()
        assert fired == ["done"]

    def test_validation_errors_complete_synchronously(self):
        svc = small_service()
        bad_page = svc.submit("a", "read", 10_000)
        bad_op = svc.submit("a", "erase", 1)
        bad_span = svc.submit("a", "read", 1, offset=4000, size=200)
        assert bad_page.status == "error"
        assert bad_op.status == "error"
        assert bad_span.status == "error"
        assert svc.outstanding == 0

    def test_requests_conserved_at_drain(self):
        svc = small_service()
        for i in range(50):
            svc.submit(f"t{i % 4}", "read", i % 64)
            svc.advance(3)
        report = svc.drain()
        assert report["all_conserved"]
        assert report["sent"] == report["delivered"] + report["dropped"]
        assert svc.outstanding == 0


class TestAdmissionControl:
    def test_queue_engages_past_outstanding_budget(self):
        svc = small_service(max_outstanding=4, queue_depth=100)
        reqs = [svc.submit("a", "read", i % 64) for i in range(20)]
        statuses = {r.status for r in reqs}
        assert "queued" in statuses
        assert svc.queued_total > 0
        svc.advance(20_000)
        svc.drain()
        assert all(r.status == "done" for r in reqs)

    def test_shed_past_queue_depth(self):
        svc = small_service(max_outstanding=2, queue_depth=4)
        reqs = [svc.submit("a", "read", i % 64) for i in range(20)]
        shed = [r for r in reqs if r.status == "shed"]
        assert len(shed) == 20 - 2 - 4
        assert svc.shed_total == len(shed)
        assert all(r.error == "overload" for r in shed)
        svc.drain()
        assert svc._requests_conserved()

    def test_watermark_queues_hot_destination(self):
        svc = small_service(node_watermark=1, max_outstanding=100)
        # Hammer one page: its home node saturates at 1 in-flight.
        reqs = [svc.submit("a", "read", 9) for _ in range(8)]
        assert any(r.status == "queued" for r in reqs)
        svc.advance(30_000)
        svc.drain()
        assert all(r.status == "done" for r in reqs)

    def test_fifo_order_preserved_under_queueing(self):
        svc = small_service(max_outstanding=1)
        reqs = [svc.submit("a", "read", i % 64) for i in range(10)]
        svc.advance(50_000)
        svc.drain()
        done_order = [
            seq for seq, status, _ in svc.completions if status == "done"
        ]
        assert done_order == sorted(done_order)
        assert all(r.status == "done" for r in reqs)

    def test_draining_service_sheds_new_requests(self):
        svc = small_service()
        svc.admitting = False
        req = svc.submit("a", "read", 1)
        assert req.status == "shed"
        assert req.error == "draining"


class TestTimeouts:
    def test_unserviceable_request_times_out(self):
        svc = small_service(request_timeout=500, reaper_interval=100)
        # Crash the home node of page 0 un-mirrored so the request
        # can neither be served nor recovered.
        svc._params  # keep service referenced
        home = svc.directory.resolve(0)
        svc.recovery.mirrored = False
        svc.inject_fault("node_crash", node=home)
        svc.advance(50)
        req = svc.submit("a", "read", 0)
        svc.advance(5_000)
        assert req.status in ("timeout", "failed")
        assert svc.outstanding == 0
        report = svc.drain()
        assert report["requests_conserved"]


def crashed_unmirrored(**overrides):
    """A service whose node crash (no replicas) has destroyed pages."""
    svc = small_service(mirrored=False, **overrides)
    home = svc.directory.resolve(0)
    svc.inject_fault("node_crash", node=home)
    svc.advance(5_000)
    assert 0 in svc.directory.lost
    return svc


class TestLostPages:
    def test_submit_for_lost_page_fails_page_lost(self):
        svc = crashed_unmirrored()
        done = []
        req = svc.submit("a", "read", 0, on_done=done.append)
        assert req.status == "failed" and req.error == "page_lost"
        assert done == [req]
        assert svc.outstanding == 0
        assert svc.tenants["a"].failed == 1
        ok = svc.submit("a", "read", svc.directory.pages[0])
        svc.advance(5_000)
        assert ok.status == "done"
        report = svc.drain()
        assert report["all_conserved"]

    def test_queued_request_for_lost_page_fails_when_pumped(self):
        svc = crashed_unmirrored(max_outstanding=1)
        live = svc.submit("a", "read", svc.directory.pages[0])
        queued = svc.submit("a", "read", 0)
        assert live.status == "inflight" and queued.status == "queued"
        svc.advance(5_000)
        assert live.status == "done"
        assert queued.status == "failed" and queued.error == "page_lost"
        assert svc.drain()["all_conserved"]

    def test_queued_lost_requests_fail_without_recursing(self):
        # Each failure frees a budget slot and re-enters the pump; a
        # long backlog of lost-page requests must not nest per request.
        svc = crashed_unmirrored(max_outstanding=1, queue_depth=2_000)
        svc.submit("a", "read", svc.directory.pages[0])
        backlog = [svc.submit("a", "read", 0) for _ in range(1_500)]
        svc.advance(5_000)
        assert all(r.error == "page_lost" for r in backlog)
        assert svc.drain()["all_conserved"]


class TestTenantAccounting:
    def test_percentiles_match_reference(self):
        svc = small_service()
        reqs = []
        for i in range(40):
            reqs.append(svc.submit("a", "read", (i * 7) % 64))
            svc.advance(17)
        svc.drain()
        latencies = [float(r.latency) for r in reqs]
        assert all(r.status == "done" for r in reqs)
        ts = svc.tenants["a"]
        assert ts.p50() == percentile(latencies, 50)
        assert ts.p99() == percentile(latencies, 99)

    def test_per_tenant_isolation_of_counts(self):
        svc = small_service()
        for i in range(12):
            svc.submit("alpha" if i % 3 else "beta", "read", i % 64)
            svc.advance(11)
        svc.drain()
        snap = svc.snapshot()
        assert snap["tenants"]["alpha"]["submitted"] == 8
        assert snap["tenants"]["beta"]["submitted"] == 4
        assert snap["submitted"] == 12

    def test_snapshot_is_json_safe(self):
        import json

        svc = small_service()
        svc.submit("a", "read", 1)
        svc.advance(2_000)
        json.dumps(svc.snapshot())
        json.dumps(svc.drain())
        json.dumps(svc.digest())


class TestConfigRoundTrip:
    def test_from_config_rebuilds_identical_service(self):
        svc = small_service(max_outstanding=17)
        clone = FabricService.from_config(svc.config_dict())
        assert clone.config_dict() == svc.config_dict()
        assert clone.max_outstanding == 17

    def test_invalid_footprint_rejected(self):
        with pytest.raises(ValueError):
            small_service(footprint_pages=0)
