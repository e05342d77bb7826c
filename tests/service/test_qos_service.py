"""Service-layer QoS: tenant classes, class-aware admission, SLO blocks —
plus the stale-source-ring regression (satellite 1)."""

from __future__ import annotations

import zlib

from repro.network.qos import BULK_CLASS
from repro.service.core import FabricService
from repro.service.log import RequestLog, replay


def _drive(svc: FabricService, plan, step: int = 10) -> None:
    for tenant, op, page in plan:
        svc.submit(tenant, op, page)
        svc.advance(step)


class TestSourceRingRefresh:
    def test_ring_follows_scale_down(self):
        """Satellite 1: after an unmount, a tenant first seen post-scale
        must hash onto the *current* active ring, not the construction
        ring — the stale ring kept the old modulus and could hand out
        excised nodes."""
        svc = FabricService(nodes=36, footprint_pages=64)
        before = sorted(svc.topology.active_nodes)
        report = svc.scale_down(count=4)
        assert report["ok"], report
        # Let the gate-off pipeline finish (block/migrate/switch).
        svc.advance(200_000)
        after = sorted(svc.topology.active_nodes)
        assert len(after) < len(before)
        # A tenant named to collide with the stale modulus: with the old
        # ring, crc32 % len(before) could index a gated node; the fixed
        # ring can only yield currently-active nodes.
        for tenant in ("late-tenant", "t2", "zz-post-scale"):
            src = svc._pick_source(tenant)
            assert src in after, (tenant, src)
            start = zlib.crc32(tenant.encode()) % len(after)
            assert src in after[start:] + after[:start]

    def test_ring_covers_scale_up_additions(self):
        svc = FabricService(nodes=36, footprint_pages=64)
        svc.scale_down(count=4)
        svc.advance(200_000)
        shrunk = sorted(svc.topology.active_nodes)
        svc.scale_up()
        svc.advance(200_000)
        regrown = sorted(svc.topology.active_nodes)
        assert len(regrown) > len(shrunk)
        # New tenants hash over the regrown ring, reaching woken nodes.
        reachable = {
            svc._pick_source(f"tenant-{i}") for i in range(4 * len(regrown))
        }
        assert reachable - set(shrunk), "woken nodes never selected"

    def test_cached_ring_moves_with_scaling(self):
        """The ring is cached until the active set changes: picks
        between requests around a scale-down and a scale-up match a
        ring rebuilt from the active set on every pick."""
        svc = FabricService(nodes=36, footprint_pages=64)
        tenants = [f"tenant-{i}" for i in range(48)]

        def rebuilt(tenant):
            ring = sorted(svc.topology.active_nodes)
            start = zlib.crc32(tenant.encode()) % len(ring)
            for step in range(len(ring)):
                node = ring[(start + step) % len(ring)]
                if svc.layer.usable_source(node) and svc.live.usable(node):
                    return node
            return None

        def picks():
            got = [svc._pick_source(tenant) for tenant in tenants]
            assert got == [rebuilt(tenant) for tenant in tenants]
            return got

        _drive(svc, [(f"t{i % 3}", "read", i % 64) for i in range(10)])
        first = picks()
        assert svc.scale_down(count=4)["ok"]
        svc.advance(200_000)
        _drive(svc, [(f"t{i % 3}", "read", i % 64) for i in range(10)])
        shrunk = picks()
        assert shrunk != first
        svc.scale_up()
        svc.advance(200_000)
        _drive(svc, [(f"t{i % 3}", "read", i % 64) for i in range(10)])
        assert picks() != shrunk

    def test_replay_digest_stable_across_scaling(self):
        svc = FabricService(nodes=36, footprint_pages=64)
        _drive(svc, [(f"t{i % 3}", "read", i % 64) for i in range(20)])
        svc.scale_down(count=2)
        svc.advance(100_000)
        _drive(svc, [(f"late{i % 2}", "read", i % 64) for i in range(10)])
        svc.drain()
        log = RequestLog.capture(svc)
        assert replay(log).digest() == svc.digest()


class TestTenantClasses:
    def _qos_service(self, **kwargs) -> FabricService:
        return FabricService(
            nodes=36, footprint_pages=64, qos=True,
            tenant_classes={"bulk-a": BULK_CLASS, "bulk-b": BULK_CLASS},
            **kwargs,
        )

    def test_params_roundtrip_through_config(self):
        svc = self._qos_service()
        clone = FabricService.from_config(svc.config_dict())
        assert clone._qos is not None
        assert clone.tenant_classes == svc.tenant_classes

    def test_unmapped_tenants_ride_class_zero(self):
        svc = self._qos_service()
        assert svc.class_of_tenant("bulk-a") == BULK_CLASS
        assert svc.class_of_tenant("anything-else") == 0

    def test_classless_service_has_no_qos_surfaces(self):
        svc = FabricService(nodes=36, footprint_pages=64)
        _drive(svc, [("t", "read", i % 64) for i in range(10)])
        svc.drain()
        assert "per_class" not in svc.latency_summary()
        assert "qos" not in svc.snapshot()
        assert "classes" not in svc.digest()

    def test_per_class_slo_accounting(self):
        svc = self._qos_service()
        plan = []
        for i in range(30):
            plan.append(("lat" if i % 3 == 0 else f"bulk-{'ab'[i % 2]}",
                         "read", i % 64))
        _drive(svc, plan)
        report = svc.drain()
        per_class = report["latency"]["per_class"]
        assert per_class["latency"]["completed"] == 10
        assert per_class["bulk"]["completed"] == 20
        assert per_class["latency"]["p99"] > 0
        snap = svc.snapshot()
        assert snap["qos"]["tenant_classes"]["bulk-a"] == BULK_CLASS
        assert set(svc.digest()["classes"]) == {
            "latency", "bulk", "background",
        }

    def test_replay_preserves_qos_digest(self):
        svc = self._qos_service()
        _drive(svc, [(f"bulk-{'ab'[i % 2]}" if i % 2 else "lat",
                      "read", i % 64) for i in range(24)])
        svc.drain()
        log = RequestLog.capture(svc)
        replayed = replay(log)
        assert replayed.digest() == svc.digest()
        assert "classes" in replayed.digest()


class TestClassAwareAdmission:
    def test_bulk_sheds_first_under_overload(self):
        """Priority tenants keep admitting while bulk exhausts its
        halved budget, queues, and sheds — submitted at one quiescent
        cycle so the network cannot drain between submissions."""
        svc = FabricService(
            nodes=36, footprint_pages=64, qos=True,
            tenant_classes={"bulk": BULK_CLASS},
            max_outstanding=16, queue_depth=8, node_watermark=1_000_000,
        )
        for i in range(40):
            svc.submit("bulk", "read", i % 64)
        bulk_stats = svc.tenant("bulk")
        # Bulk budget is 16 >> 1 = 8: the rest queued then shed.
        assert bulk_stats.shed > 0
        assert svc.outstanding == 8
        # A latency tenant still has headroom under its full budget.
        request = svc.submit("urgent", "read", 0)
        assert request.status == "inflight"
        svc.drain()

    def test_classless_admission_unchanged(self):
        svc = FabricService(
            nodes=36, footprint_pages=64,
            max_outstanding=16, queue_depth=8, node_watermark=1_000_000,
        )
        for i in range(40):
            svc.submit("any", "read", i % 64)
        assert svc.outstanding == 16
        svc.drain()
