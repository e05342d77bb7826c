"""Where bit flips on per-router tables and the declared state differ.

A window is a function of the active topology, the failed wires and the
blocked nodes, so every rebuild reads all three.  Flipping bits on
tables rebuilt from the topology alone got two cases wrong until a
later repair step ran: a reconfiguration rebuild listed a failed wire
again, and a restored wire's rebuild inside an open live gate-off
window dropped the victims' blocks.  These tests pin both.
"""

from __future__ import annotations

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import GreediestRouting
from repro.core.topology import LinkDirection, StringFigureTopology
from repro.faults.detector import TableRepair
from tests.core.test_incremental_tables import assert_rows_current, live_system


def uses_wire(routing, router, a, b):
    """Whether *router*'s window reads the wire ``{a, b}``: an entry for
    the other endpoint, or a two-hop entry through one endpoint to the
    other."""
    window = routing.window(router)
    one_hop = [w for w, hop, _vias in window if hop == 1]
    for x, y in ((a, b), (b, a)):
        if router == x and any(w == y for w, _hop, _vias in window):
            return True
        for w, hop, vias in window:
            if hop == 2 and w == y and any(one_hop[i] == x for i in vias):
                return True
    return False


def test_offline_rebuild_keeps_failed_wires_out():
    """Gating or waking a node beside a failed wire recomputes the rows
    around it; none may list the wire as usable, with no repair step
    after the rebuild."""
    for direction in (LinkDirection.BI, LinkDirection.UNI):
        topo = StringFigureTopology(64, 4, seed=5, direction=direction)
        routing = GreediestRouting(topo)
        manager = ReconfigurationManager(topo, routing)
        repair = TableRepair(routing)
        victim = manager.gate_candidates(1)[0]
        a = topo.neighbors(victim)[0]
        b = next(w for w in topo.neighbors(a) if w != victim)
        repair.route_around_link(a, b)
        for switch in (manager.power_gate, manager.power_on):
            (event,) = switch(victim)
            assert a in event.tables_updated and b in event.tables_updated
            for r in topo.active_nodes:
                assert not uses_wire(routing, r, a, b), (switch.__name__, r)
            assert_rows_current(routing, {(min(a, b), max(a, b))})


def test_restore_inside_open_window_keeps_victims_blocked():
    """Restoring a wire while a live gate-off window is open recomputes
    the rows around it; no victim may reappear in any window."""
    topo, routing, sim, manager, live, repair = live_system(64, 4, 3)
    victims = manager.gate_candidates(2)
    a = topo.neighbors(victims[0])[0]
    b = next(w for w in topo.neighbors(a) if w not in victims)
    repair.route_around_link(a, b)
    live.gate_off(victims, at=10)
    sim.run(until=12)
    assert live._window_active and routing.blocked == set(victims)
    assert sim._arrival_hook is not None
    repair.restore_link(a, b)
    for r in topo.active_nodes:
        assert not set(victims) & {w for w, _hop, _vias in routing.window(r)}, r
    assert_rows_current(routing, (), set(victims))
    sim.run(until=50_000)
    assert live.pending_operations == 0 and routing.blocked == set()
    # The arrival hook is bound only while a window is open.
    assert sim._arrival_hook is None
    assert_rows_current(routing)
