#!/usr/bin/env python3
"""Elastic network scale: power management and design reuse.

Demonstrates the paper's headline flexibility features (§III-C):

* **Online power gating under load** — gate 25% of the memory nodes
  *while traffic is flowing*: the reconfiguration runs inside the
  simulator's event loop (drain, block, sleep latency, wire switch,
  revalidate, unblock), no packet is lost, and the per-event latency
  disturbance and recovery time are measured.
* **Real data movement** — the same gate-off, but the victims' memory
  pages physically migrate to the survivors as rate-limited background
  traffic before the links power down (and stream back after the
  wake): bytes moved, migration makespan, and the foreground stalls
  and slowdown the instant-remap "teleport" baseline never sees.
* **Dynamic power gating (offline view)** — the same scale change
  between simulations: shortcuts patch the space-0 ring, routing keeps
  working, average paths get *shorter* on the smaller network.  Then
  wake everything back up.
* **Static design reuse** — deploy a 96-node board with only 64 nodes
  mounted, run, then "purchase" 16 more nodes and mount them without
  re-fabricating anything.

Run:  python examples/elastic_scaling.py
"""

from __future__ import annotations

from repro import ReconfigurationManager, StringFigureTopology
from repro.analysis.paths import greedy_path_stats
from repro.core.routing import AdaptiveGreediestRouting
from repro.energy.power_gating import PowerManager
from repro.network.policies import GreedyPolicy
from repro.traffic.injection import run_synthetic
from repro.traffic.patterns import make_pattern


def traffic_probe(topo, routing, label: str) -> None:
    policy = GreedyPolicy(routing)
    pattern = make_pattern("uniform_random", topo.active_nodes)
    stats = run_synthetic(topo, policy, pattern, rate=0.15,
                          warmup=150, measure=500)
    paths = greedy_path_stats(routing, sample_pairs=1500)
    print(f"  [{label}] nodes={len(topo.active_nodes):3d} "
          f"avg hops={paths.mean:.2f} "
          f"latency={stats.avg_latency:.1f} cyc "
          f"accepted={stats.accepted_rate:.1%} "
          f"fallback hops={stats.fallback_hops}")


def online_gate_off_under_load() -> None:
    """The paper's dynamic reconfiguration, live: packets keep flowing."""
    from repro.workloads.churn import ChurnSchedule, run_churn

    print("=== Online reconfiguration: gating 25% of 64 nodes under load ===")
    topo = StringFigureTopology(64, 4, seed=11)
    schedule = ChurnSchedule.cycle(gate_at=1000, wake_at=2400, fraction=0.25)
    result = run_churn(topo, rate=0.15, schedule=schedule,
                       warmup=300, measure=4000, seed=0)
    stats = result.stats
    print(f"  traffic: {stats.sent} packets sent, {stats.delivered} delivered "
          f"(conservation {'ok' if stats.sent == stats.delivered else 'BROKEN'})")
    for event, metrics in zip(result.events, result.disturbances):
        recovery = (f"recovered in {metrics['recovery_cycles']} cycles"
                    if metrics["recovered"] else "did not recover")
        print(f"  {event.kind:8s} {len(event.nodes):2d} nodes: "
              f"drained in {event.drain_cycles} cyc, "
              f"blocked window {event.block_cycles} cyc, "
              f"{event.parked_packets} packets parked, "
              f"peak latency {metrics['peak_ratio']:.2f}x baseline, {recovery}")
    print(f"  network dipped to {result.min_active_nodes} active nodes and "
          f"finished back at {result.final_active_nodes}")


def migration_under_load() -> None:
    """The same scale-down, but the data pays its way across the network."""
    from repro.workloads.migration import run_migration

    print("\n=== Data migration: gating 25% of 64 nodes moves real pages ===")
    results = {}
    for mode in ("teleport", "migrate"):
        topo = StringFigureTopology(64, 4, seed=11)
        results[mode] = run_migration(
            topo, rate=0.1, gate_fraction=0.25, footprint_pages=128,
            rate_limit=64.0, warmup=300, measure=6000, seed=0, mode=mode,
        )
    for mode, result in results.items():
        p = result.payload()
        print(f"  [{mode:8s}] {p['bytes_moved'] / 1024:5.0f} KiB moved, "
              f"makespan {p['migration_makespan']:5d} cyc, "
              f"{p['fg_stalled']:3d} stalled + {p['fg_forwarded']:2d} forwarded "
              f"requests, fg p99 {p['fg_p99_overall']:.0f} cyc "
              f"({p['fg_slowdown_p99']:.2f}x baseline during the move)")
        assert p['sent'] == p['delivered'] and p['fg_issued'] == p['fg_completed']
    for event in results["migrate"].events:
        record = event.migration
        print(f"  {event.kind:8s}: {record.pages_moved} pages "
              f"({record.bytes_moved / 1024:.0f} KiB) migrated "
              f"{'out of' if record.kind == 'out' else 'back into'} "
              f"{len(event.nodes)} nodes in {record.makespan_cycles} cycles")
    print("  conservation ok in both modes: every packet delivered, every "
          "foreground request answered, every page on exactly one node")


def dynamic_power_management() -> None:
    print("\n=== Dynamic reconfiguration: power gating 25% of 96 nodes ===")
    topo = StringFigureTopology(96, 4, seed=11)
    routing = AdaptiveGreediestRouting(topo)
    manager = PowerManager(ReconfigurationManager(topo, routing))

    traffic_probe(topo, routing, "full network ")
    plan = manager.gate_fraction(0.25, now_ns=0)
    print(f"  gated {len(plan.gated)} nodes "
          f"(sleep latency {plan.overhead_ns:.0f} ns); "
          f"shortcuts switched in: "
          f"{sum(len(e.shortcuts_activated) for e in plan.events)}")
    assert manager.manager.validate_connectivity()
    traffic_probe(topo, routing, "75% powered ")

    plan = manager.wake_all(now_ns=200_000)
    print(f"  woke {len(plan.woken)} nodes "
          f"(wake latency {plan.overhead_ns:.0f} ns)")
    traffic_probe(topo, routing, "restored     ")


def static_design_reuse() -> None:
    print("\n=== Static expansion: 96-node board, 64 mounted at launch ===")
    topo = StringFigureTopology(96, 4, seed=23)
    routing = AdaptiveGreediestRouting(topo)
    manager = ReconfigurationManager(topo, routing)

    # Unmount 32 reserved positions before deployment (offline).
    reserved = manager.gate_candidates(32, min_spacing=3)
    manager.unmount(*reserved)
    print(f"  deployed with {len(topo.active_nodes)} of 96 positions mounted")
    traffic_probe(topo, routing, "launch config")

    # Capacity upgrade: mount 16 of the reserved nodes — no redesign,
    # no re-fabrication, just link + table reconfiguration.
    manager.mount(*reserved[:16])
    print(f"  upgraded to {len(topo.active_nodes)} nodes "
          "(same board, same routing logic)")
    traffic_probe(topo, routing, "after upgrade")


if __name__ == "__main__":
    online_gate_off_under_load()
    migration_under_load()
    dynamic_power_management()
    static_design_reuse()
