#!/usr/bin/env python3
"""Quickstart: build a String Figure memory network and route on it.

Walks through the paper's working pieces at a friendly scale:

1. generate a balanced random topology (9 nodes / 4-port routers —
   the paper's Figure 3 example scale, then 128 nodes);
2. inspect virtual spaces, coordinates, and shortcut wires;
3. route packets with the greediest protocol and look at a routing
   table;
4. run a short uniform-random traffic simulation and print latency,
   throughput, and energy.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    AdaptiveGreediestRouting,
    GreediestRouting,
    StringFigureTopology,
    make_policy,
)
from repro.analysis.paths import greedy_path_stats, shortest_path_stats
from repro.core.routing_table import max_entries
from repro.energy.model import EnergyModel
from repro.traffic.injection import run_synthetic
from repro.traffic.patterns import make_pattern


def tiny_example() -> None:
    print("=== 9 nodes, 4-port routers (paper Figure 3 scale) ===")
    topo = StringFigureTopology(num_nodes=9, num_ports=4, seed=42)
    print(f"virtual spaces (L = p/2): {topo.num_spaces}")
    for node in range(3):
        coords = ", ".join(f"{c:.2f}" for c in topo.coords.vector(node))
        print(f"  node {node}: coordinates <{coords}>, "
              f"neighbors {topo.neighbors(node)}")
    print(f"shortcut wires (dormant until reconfiguration): "
          f"{topo.shortcut_wires}")

    routing = GreediestRouting(topo)
    result = routing.route(src=7, dst=2)
    print(f"greediest route 7 -> 2: {' -> '.join(map(str, result.path))} "
          f"({result.hops} hops)")

    window = routing.window(7)
    one_hop = [node for node, hop, _vias in window if hop == 1]
    print(f"node 7 routing table: {len(window)} usable entries "
          f"(hardware bound p(p+1) = {max_entries(topo.num_ports)})")
    print(f"  one-hop: {one_hop}")
    for node, hop, vias in window:
        if hop == 2:
            print(f"  two-hop: node {node} via {[one_hop[i] for i in vias]}")


def scale_example() -> None:
    print("\n=== 128 nodes, 4-port routers ===")
    topo = StringFigureTopology(num_nodes=128, num_ports=4, seed=1)
    routing = AdaptiveGreediestRouting(topo)

    optimal = shortest_path_stats(topo.graph(), sample_sources=None)
    greedy = greedy_path_stats(routing, sample_pairs=2000)
    print(f"shortest paths: mean {optimal.mean:.2f}, max {optimal.maximum}")
    print(f"greediest routing: mean {greedy.mean:.2f} hops "
          f"(p10={greedy.p10:.0f}, p90={greedy.p90:.0f}) — "
          "local tables only, no global state")

    policy = make_policy(topo)
    pattern = make_pattern("uniform_random", topo.active_nodes)
    stats = run_synthetic(topo, policy, pattern, rate=0.2,
                          warmup=200, measure=800)
    energy = EnergyModel().from_stats(stats)
    print(f"uniform random @ 20% injection: "
          f"avg latency {stats.avg_latency:.1f} cycles "
          f"({stats.avg_latency * 3.2:.0f} ns), "
          f"accepted {stats.accepted_rate:.1%}")
    print(f"dynamic energy: network {energy.network_pj / 1e6:.2f} uJ, "
          f"DRAM {energy.dram_pj / 1e6:.2f} uJ")


if __name__ == "__main__":
    tiny_example()
    scale_example()
