"""Destination-major decision columns vs the scalar greedy path.

``GreediestRouting.column`` answers a cold ``(router, dst)`` pair
from *dst*'s decision column: one MD vector to *dst* decides every
router's hop at once over padded per-router window arrays, and the
result is stored as one packed integer per router.  It must agree with
the scalar ``next_hop`` decision — same via, same commit, same
fallback/valid classification — for every pair, on bidirectional and
unidirectional networks, with routers of unequal window sizes, and
after any sequence of reconfiguration and fault-repair steps.  Its
columns must drop whenever the routing ``version`` moves, and it must
hold no more than one flat integer buffer per destination.
"""

from __future__ import annotations

import os
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import AdaptiveGreediestRouting, GreediestRouting
from repro.core.topology import LinkDirection, StringFigureTopology
from repro.faults.detector import TableRepair

_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"


def kernel_entry(routing, current, dst):
    """``(next, commit)`` decoded from *dst*'s column, or ``None`` where
    the scalar path decides (a ``-1`` entry, or no column at all)."""
    column = routing.column(dst)
    if column is None or column[current] < 0:
        return None
    nxt, commit = divmod(column[current], routing.column_stride)
    return nxt, (commit - 1 if commit else None)


def assert_pair_matches_scalar(routing, current, dst):
    """One pair's kernel answer equals the scalar decision; returns
    whether the kernel answered (``None`` <=> the scalar path enters
    the ring walk, or cannot even start it on a broken ring)."""
    entry = kernel_entry(routing, current, dst)
    # The exact direct-delivery encoding stands in for is_direct.
    assert (routing.column(dst)[current] == dst * routing.column_stride) == (
        routing.is_direct(current, dst)
    ), (current, dst)
    try:
        nxt, state = routing.next_hop(current, dst)
    except RuntimeError:
        # The fallback walk found no clockwise progress: only a
        # greedy dead end can get there.
        assert entry is None, (current, dst)
        return False
    if entry is None:
        assert state.in_fallback, (current, dst)
        return False
    assert not state.in_fallback, (current, dst)
    assert entry == (nxt, state.commit), (current, dst)
    return True


def assert_kernel_matches_scalar(topo, routing):
    """Exhaustive (src, dst) equivalence, including the None/fallback
    classification (kernel None <=> scalar enters the ring walk)."""
    active = topo.active_nodes
    checked = kernel_hits = 0
    for current in active:
        for dst in active:
            if current == dst:
                continue
            kernel_hits += assert_pair_matches_scalar(routing, current, dst)
            checked += 1
    assert checked == len(active) * (len(active) - 1)
    # On an intact network greedy always progresses: the kernel must
    # answer every pair, not silently defer to the scalar path.
    assert kernel_hits == checked
    return kernel_hits


@pytest.mark.parametrize("nodes,ports", [(64, 4), (144, 4)])
def test_kernel_equals_scalar_exhaustive(nodes, ports):
    topo = StringFigureTopology(nodes, ports, seed=0)
    assert_kernel_matches_scalar(topo, GreediestRouting(topo))


def test_kernel_equals_scalar_one_hop_only():
    topo = StringFigureTopology(64, 4, seed=0)
    routing = GreediestRouting(topo, use_two_hop=False)
    active = topo.active_nodes
    for current in active:
        for dst in active:
            if current != dst:
                assert_pair_matches_scalar(routing, current, dst)


@pytest.mark.parametrize("use_two_hop", [True, False])
def test_kernel_equals_scalar_unidirectional(use_two_hop):
    # MD is not symmetric on a UNI network (clockwise distance from the
    # router to the destination), so a column computed in the wrong
    # orientation would disagree here.
    topo = StringFigureTopology(144, 4, seed=0, direction=LinkDirection.UNI)
    routing = GreediestRouting(topo, use_two_hop=use_two_hop)
    assert routing.md(0, 1) != routing.md(1, 0)
    assert_kernel_matches_scalar(topo, routing)


@pytest.mark.parametrize("use_two_hop", [True, False])
def test_kernel_equals_scalar_unequal_windows(use_two_hop):
    # SF-648 routers have 6 or 8 usable neighbors and 45-64 window
    # entries, so both padded dimensions hold real padding.
    topo = StringFigureTopology(648, 8, seed=0)
    routing = GreediestRouting(topo, use_two_hop=use_two_hop)
    active = topo.active_nodes
    assert len({len(routing.nbr_index[r]) for r in active}) > 1
    assert len({len(routing.window(r)) for r in active}) > 1
    # Every destination of a sample of routers that covers both the
    # shortest and the longest windows.
    by_window = sorted(active, key=lambda r: (len(routing.window(r)), r))
    sample = set(by_window[:4] + by_window[-4:] + active[::97])
    for current in sorted(sample):
        for dst in active:
            if current != dst:
                assert assert_pair_matches_scalar(routing, current, dst)


def test_size_gate_disables_kernel():
    topo = StringFigureTopology(64, 4, seed=0)
    routing = GreediestRouting(topo)
    routing.kernel_max_nodes = 32
    a, b = topo.active_nodes[0], topo.active_nodes[10]
    assert kernel_entry(routing, a, b) is None
    # Above the gate neither a column nor the padded arrays are built.
    assert routing.columns == {}
    assert routing._kernel_state is None


def test_column_store_is_one_flat_buffer_per_destination():
    topo = StringFigureTopology(144, 4, seed=0)
    routing = GreediestRouting(topo)
    assert_kernel_matches_scalar(topo, routing)
    n = topo.num_nodes
    columns = routing.columns
    assert 0 < len(columns) <= len(topo.active_nodes)
    for dst, column in columns.items():
        assert topo.is_active(dst)
        assert isinstance(column, array), type(column)
        assert len(column) == n
        assert column.itemsize == 4
    # The padded state is a handful of arrays, not per-router lists.
    state = routing._kernel_state
    for name, value in vars(state).items():
        assert not isinstance(value, (list, dict)), name
    assert len(state.vias) <= topo.num_ports


def test_tables_invalidate_on_reconfiguration():
    topo = StringFigureTopology(64, 4, seed=7)
    routing = GreediestRouting(topo)
    victim = ReconfigurationManager(topo, routing).gate_candidates(1)[0]
    # Warm every router's table against the intact network.
    assert_kernel_matches_scalar(topo, routing)
    before = routing.version
    ReconfigurationManager(topo, routing).power_gate(victim)
    assert routing.version > before
    # Post-gate decisions must match post-gate scalar routing; any
    # stale table would still forward toward the gated node.
    active = topo.active_nodes
    assert victim not in active
    for current in active:
        for dst in active:
            if current == dst:
                continue
            entry = kernel_entry(routing, current, dst)
            if entry is not None:
                nxt, state = routing.next_hop(current, dst)
                assert entry == (nxt, state.commit), (current, dst)
                assert entry[0] != victim


def test_tables_invalidate_on_fault_repair():
    topo = StringFigureTopology(64, 4, seed=0)
    routing = AdaptiveGreediestRouting(topo)
    repair = TableRepair(routing)
    u = topo.active_nodes[0]
    v = topo.neighbors(u)[0]
    # Warm, then find a destination the warm table answers via the
    # soon-to-fail wire.
    stale_via_v = [
        dst for dst in topo.active_nodes
        if dst != u
        and (entry := kernel_entry(routing, u, dst)) is not None
        and entry[0] == v
    ]
    assert stale_via_v  # a one-hop neighbor is always someone's via
    repair.route_around_link(u, v)
    for dst in stale_via_v:
        entry = kernel_entry(routing, u, dst)
        if entry is not None:
            assert entry[0] != v
            nxt, state = routing.next_hop(u, dst)
            assert entry == (nxt, state.commit)
    # Restore rebuilds the neighborhood; decisions return to the
    # intact-network answers.
    repair.restore_link(u, v)
    assert_kernel_matches_scalar(topo, routing)


@settings(max_examples=40 if _CI else 8, deadline=None, derandomize=_CI)
@given(
    nodes=st.integers(16, 160),
    ports=st.sampled_from([4, 6, 8]),
    seed=st.integers(0, 2**16),
    uni=st.booleans(),
    use_two_hop=st.booleans(),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["gate", "fail", "restore"]),
            st.integers(0, 10_000),
            st.integers(0, 10_000),
        ),
        max_size=6,
    ),
    probe=st.randoms(use_true_random=False),
)
def test_kernel_matches_scalar_across_reconfiguration(
    nodes, ports, seed, uni, use_two_hop, steps, probe
):
    direction = LinkDirection.UNI if uni else LinkDirection.BI
    topo = StringFigureTopology(nodes, ports, seed=seed, direction=direction)
    routing = GreediestRouting(topo, use_two_hop=use_two_hop)
    manager = ReconfigurationManager(topo, routing)
    repair = TableRepair(routing)
    failed: list[tuple[int, int]] = []

    def check():
        active = topo.active_nodes
        pairs = [(probe.choice(active), probe.choice(active)) for _ in range(60)]
        for current, dst in pairs:
            if current != dst:
                assert_pair_matches_scalar(routing, current, dst)

    check()
    for op, a, b in steps:
        if op == "gate":
            candidates = manager.gate_candidates(4)
            if candidates and len(topo.active_nodes) > nodes // 2:
                manager.power_gate(candidates[a % len(candidates)])
        elif op == "fail":
            active = topo.active_nodes
            u = active[a % len(active)]
            nbrs = topo.neighbors(u)
            if nbrs:
                v = nbrs[b % len(nbrs)]
                repair.route_around_link(u, v)
                failed.append((u, v))
        elif failed:
            u, v = failed.pop(a % len(failed))
            if topo.is_active(u) and topo.is_active(v):
                repair.restore_link(u, v)
        check()
