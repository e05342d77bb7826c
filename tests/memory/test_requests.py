"""The shared memory-request path: local, remote, forward, stall, lost."""

from __future__ import annotations

import pytest

from repro.core.routing import GreediestRouting
from repro.core.topology import StringFigureTopology
from repro.memory.address import AddressMapper
from repro.memory.migration import PageDirectory
from repro.memory.node import MemoryNodePool
from repro.memory.requests import MemoryRequest, MemoryRequestPath
from repro.network.packet import PacketKind
from repro.network.policies import GreedyPolicy
from repro.network.simulator import NetworkSimulator

PAGE = 0


def stack(**path_kwargs):
    topo = StringFigureTopology(16, 4, seed=7)
    sim = NetworkSimulator(topo, GreedyPolicy(GreediestRouting(topo)))
    mapper = AddressMapper(list(topo.active_nodes))
    directory = PageDirectory()
    directory.populate(mapper, 16)
    done: list[tuple[MemoryRequest, int]] = []
    path = MemoryRequestPath(
        sim,
        directory,
        mapper,
        MemoryNodePool(sim),
        lambda request, now: done.append((request, now)),
        **path_kwargs,
    )
    others = [n for n in topo.active_nodes if n != directory.owner_of(PAGE)]
    return sim, directory, path, done, others


def deliveries(sim, kind) -> list[int]:
    """Destinations of every delivered packet of *kind*, in order."""
    seen: list[int] = []

    def hook(packet, now):
        if packet.kind is kind:
            seen.append(packet.dst)

    sim.on_delivery(hook)
    return seen


def test_pool_builds_one_node_per_id():
    sim, _directory, path, _done, _others = stack()
    pool = path.memory_node
    assert pool(3) is pool(3)
    assert pool(3) is not pool(4)
    assert sorted(pool.nodes) == [3, 4]


def test_local_page_completes_at_dram_time_without_packets():
    sim, directory, path, done, _others = stack()
    owner = directory.owner_of(PAGE)
    request = MemoryRequest(owner, "read", PAGE, 0, 64)
    assert path.inject(request, 0) == "serve"
    sim.drain()
    assert sim.stats.sent == 0
    assert len(done) == 1 and done[0][1] > 0


def test_remote_write_is_acked():
    sim, _directory, path, done, others = stack()
    acks = deliveries(sim, PacketKind.WRITE_ACK)
    request = MemoryRequest(others[0], "write", PAGE, 64, 256)
    assert path.inject(request, 0) == "remote"
    sim.drain()
    assert acks == [others[0]]
    assert [r for r, _ in done] == [request]


@pytest.mark.parametrize("reply_to_forwarder", [False, True])
def test_forwarded_request_stalls_then_answers(reply_to_forwarder):
    sim, directory, path, done, others = stack(reply_to_forwarder=reply_to_forwarder)
    owner = directory.owner_of(PAGE)
    src, dst = others[0], others[1]
    replies = deliveries(sim, PacketKind.READ_RESP)
    request = MemoryRequest(src, "read", PAGE, 0, 64)
    assert path.inject(request, 0) == "remote"
    # The page leaves while the request is on its way to the old owner.
    directory.begin_move(PAGE, owner, dst)
    sim.schedule(500, lambda now: directory.land(PAGE, now))
    sim.drain()
    assert (path.forwarded, path.stalled) == (1, 1)
    assert replies == [owner if reply_to_forwarder else src]
    assert len(done) == 1 and done[0][1] > 500


def test_lost_page_fails_the_request():
    sim, directory, path, done, others = stack()
    failed = []
    path.on_fail = lambda request, now, reason: failed.append(reason)
    directory.drop_page(PAGE)
    assert directory.resolve(PAGE) == -1
    assert path.inject(MemoryRequest(others[0], "read", PAGE, 0, 64), 0) == "lost"
    assert failed == ["page_lost"] and not done
    path.on_fail = None
    with pytest.raises(RuntimeError, match="lost page"):
        path.inject(MemoryRequest(others[0], "read", PAGE, 0, 64), 0)


def test_retired_request_ignores_its_late_response():
    sim, _directory, path, done, others = stack()
    request = MemoryRequest(others[0], "read", PAGE, 0, 64)
    path.inject(request, 0)
    request.status = "timeout"
    sim.drain()
    assert sim.stats.delivered == sim.stats.sent == 1
    assert not done
