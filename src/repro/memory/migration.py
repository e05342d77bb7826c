"""Data migration engine: moving memory pages as real network traffic.

When the network scales down, the pages homed on the departing nodes do
not teleport — they are read out of the victim's DRAM, travel the
network as packets competing with foreground load for links, credits,
and DRAM service, and are written into their new owner's DRAM.  This
module pays that cost explicitly, closing the gap the instant
``AddressMapper.rebalance()`` remap left in the elasticity numbers.

Three pieces:

:class:`PageDirectory`
    The authoritative page-location table.  Every page is, at all
    times, *resident* on exactly one node or *in flight* from a source
    to a destination — the conservation invariant the tests pin.  The
    directory also rules on foreground requests: a request reaching a
    page's current owner is served; one reaching a node the page has
    left is forwarded; one reaching the destination of an in-flight
    page stalls until the page lands.

:class:`MigrationEngine`
    Executes one *batch* of page moves (the delta between two
    :class:`~repro.memory.address.AddressMapper` generations) through a
    :class:`~repro.network.simulator.NetworkSimulator`.  Each move is a
    pull: the new owner sends a ``MIG_READ`` request to the old owner,
    the old owner streams the page back as ``MIG_DATA`` chunks (DRAM
    read through its banked controller), and the new owner DRAM-writes
    the page and marks it landed.  Background pressure is bounded two
    ways: a byte-rate limit spaces page issues, and at most
    ``max_inflight_pages`` pages move concurrently.  ``teleport`` mode
    short-circuits the whole machinery (instant remap, zero traffic) —
    the PR-2 baseline every migration number is compared against.

:class:`MigrationRecord`
    Per-batch cost record: pages and bytes moved, makespan, chunk
    count.  :class:`~repro.network.elastic.LiveReconfigurator` attaches
    these to its reconfiguration events when an engine is installed as
    its migrator.

The engine's decisions are pure functions of its parameters and the
simulator's deterministic event order, so ``migration`` experiment
sweeps stay bit-identical at any worker count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from repro.memory.address import AddressMapper, migration_delta
from repro.memory.node import MemoryNode
from repro.memory.requests import REQUEST_HEADER_BYTES
from repro.network.packet import Packet, PacketKind
from repro.network.simulator import NetworkSimulator

__all__ = [
    "PageState",
    "PageDirectory",
    "MigrationRecord",
    "MigrationEngine",
]


class PageState(Enum):
    """Where a page is in its migration lifecycle."""

    RESIDENT = "resident"
    IN_FLIGHT = "in_flight"


class PageDirectory:
    """Authoritative page-location table with in-flight tracking.

    Invariant: every populated page is resident on exactly one node or
    in flight between exactly one (src, dst) pair; there is no third
    state and no moment without an entry (:meth:`check_conservation`).
    """

    def __init__(self) -> None:
        self._owner: dict[int, int] = {}
        self._inflight: dict[int, tuple[int, int]] = {}
        self._waiters: dict[int, list[Callable[[int], None]]] = {}
        #: Pages destroyed by an unplanned failure (node crash with no
        #: surviving replica).  A lost page has no owner and no state;
        #: it is the one exception to the one-place invariant, and it is
        #: accounted explicitly so ``populated == resident + in_flight +
        #: lost`` stays checkable.
        self.lost: list[int] = []
        #: Arrival-ruling tallies — cheap always-on counters surfaced
        #: by the observability probes (repro.obs); never read by the
        #: migration machinery itself.
        self.ruling_counts: dict[str, int] = {
            "serve": 0, "stall": 0, "forward": 0, "lost": 0,
        }

    def populate(self, mapper: AddressMapper, num_pages: int) -> None:
        """Seed residency for pages ``0..num_pages-1`` from *mapper*."""
        for page in range(num_pages):
            self._owner[page] = mapper.node_of(mapper.page_addr(page))

    @property
    def num_pages(self) -> int:
        return len(self._owner)

    @property
    def pages(self) -> list[int]:
        return sorted(self._owner)

    def owner_of(self, page: int) -> int:
        """Node holding the page (the source, while in flight)."""
        return self._owner[page]

    def state_of(self, page: int) -> PageState:
        return PageState.IN_FLIGHT if page in self._inflight else PageState.RESIDENT

    def resident_on(self, node: int) -> list[int]:
        """Pages currently owned by *node* (including in-flight-out)."""
        return sorted(p for p, n in self._owner.items() if n == node)

    def resolve(self, page: int) -> int:
        """Node a *new* request for the page should target.

        While the page is in flight the destination is the target: the
        request either stalls there until the page lands, or (if issued
        after landing) is served directly.  Routing new requests to the
        destination instead of the source keeps them off the node that
        is about to lose its links.  A lost page resolves to ``-1``, as
        in :meth:`arrival_ruling`: no node can serve it.
        """
        pair = self._inflight.get(page)
        return pair[1] if pair is not None else self._owner.get(page, -1)

    def arrival_ruling(self, node: int, page: int) -> tuple[str, int]:
        """How a request for *page* arriving at *node* must be handled.

        Returns ``("serve", node)``, ``("stall", node)`` (the page is
        inbound here — wait for it via :meth:`when_landed`),
        ``("forward", target)`` (the page lives elsewhere — one more
        network trip), or ``("lost", -1)`` — the page was destroyed by
        an unrecovered node crash, so the request must fail upward
        (there is no node that could ever serve it).
        """
        pair = self._inflight.get(page)
        if pair is not None:
            ruling = (
                ("stall", node) if node == pair[1] else ("forward", pair[1])
            )
        else:
            owner = self._owner.get(page)
            if owner is None:
                ruling = ("lost", -1)
            elif node == owner:
                ruling = ("serve", node)
            else:
                ruling = ("forward", owner)
        self.ruling_counts[ruling[0]] += 1
        return ruling

    @property
    def in_flight_count(self) -> int:
        """Pages currently mid-transfer (observability gauge)."""
        return len(self._inflight)

    def when_landed(self, page: int, callback: Callable[[int], None]) -> None:
        """Run ``callback(now)`` once the in-flight page lands."""
        if page not in self._inflight:
            raise ValueError(f"page {page} is not in flight")
        self._waiters.setdefault(page, []).append(callback)

    def begin_move(self, page: int, src: int, dst: int) -> None:
        if page in self._inflight:
            raise RuntimeError(f"page {page} is already in flight")
        if self._owner[page] != src:
            raise RuntimeError(
                f"page {page} is on node {self._owner[page]}, not {src}"
            )
        self._inflight[page] = (src, dst)

    def land(self, page: int, now: int) -> None:
        """Complete a move: ownership flips, stalled requests release."""
        _src, dst = self._inflight.pop(page)
        self._owner[page] = dst
        for callback in self._waiters.pop(page, []):
            callback(now)

    def teleport(self, page: int, dst: int) -> None:
        """Instant relocation (the zero-cost baseline)."""
        if page in self._inflight:
            raise RuntimeError(f"page {page} is in flight; cannot teleport")
        self._owner[page] = dst

    def drop_page(self, page: int) -> None:
        """Destroy a page (node crash with no replica to recover from).

        The page leaves the residency table and joins :attr:`lost`; a
        page mid-migration cannot be dropped this way (its source copy
        is the owner — crash handling must rule on the in-flight pair
        first).
        """
        if page in self._inflight:
            raise RuntimeError(
                f"page {page} is in flight; crash recovery must resolve "
                "the transfer before ruling it lost"
            )
        if page not in self._owner:
            raise ValueError(f"page {page} is not present")
        del self._owner[page]
        self.lost.append(page)

    def check_conservation(self) -> bool:
        """Every page in exactly one place; waiters only on in-flight.

        Lost pages are excluded from the one-place rule (they are
        nowhere, by definition) but must never overlap the residency
        or in-flight tables.
        """
        if not set(self._inflight) <= set(self._owner):
            return False
        if not set(self._waiters) <= set(self._inflight):
            return False
        if set(self.lost) & set(self._owner):
            return False
        return all(
            self._owner[p] == src for p, (src, _dst) in self._inflight.items()
        )


@dataclass
class MigrationRecord:
    """Cost record of one migration batch (or teleport)."""

    kind: str  # "out" (gate-off side) or "in" (wake side)
    nodes: tuple[int, ...]
    mode: str  # "migrate" or "teleport"
    t_start: int = 0
    t_end: int | None = None
    pages_moved: int = 0
    bytes_moved: int = 0
    chunks_sent: int = 0
    pages_planned: int = 0

    @property
    def done(self) -> bool:
        return self.t_end is not None

    @property
    def makespan_cycles(self) -> int:
        """Issue-to-last-land duration (0 for teleports and no-ops)."""
        return (self.t_end - self.t_start) if self.t_end is not None else 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "mode": self.mode,
            "nodes": list(self.nodes),
            "t_start": self.t_start,
            "t_end": self.t_end,
            "makespan_cycles": self.makespan_cycles,
            "pages_planned": self.pages_planned,
            "pages_moved": self.pages_moved,
            "bytes_moved": self.bytes_moved,
            "chunks_sent": self.chunks_sent,
            "done": self.done,
        }


@dataclass
class _Batch:
    """One in-progress set of moves."""

    moves: list[tuple[int, int, int]]
    record: MigrationRecord
    on_done: Callable[[int], None] | None
    next_index: int = 0
    pending_chunks: dict[int, int] = field(default_factory=dict)

    @property
    def issued_all(self) -> bool:
        return self.next_index >= len(self.moves)


class MigrationEngine:
    """Schedules page moves as rate-limited background network traffic.

    Parameters
    ----------
    sim:
        The running network simulator (the engine registers a delivery
        hook for its ``MIG_*`` packets).
    mapper:
        The current :class:`AddressMapper` generation.  The engine owns
        it from here on: :meth:`migrate_out` / :meth:`migrate_in`
        advance it via ``rebalance``.
    directory:
        Shared :class:`PageDirectory` (also consulted by the
        foreground workload for request placement).
    memory_node:
        ``node_id -> MemoryNode`` accessor supplying DRAM service (the
        run's :class:`~repro.memory.node.MemoryNodePool`).
    rate_limit_bytes_per_cycle:
        Background bandwidth budget: consecutive page issues are spaced
        ``page_bytes / rate`` cycles apart.
    max_inflight_pages:
        Concurrent in-flight page cap (the second pressure bound).
    chunk_bytes:
        Payload of one ``MIG_DATA`` packet; a page travels as
        ``ceil(page/chunk)`` chunks so migration interleaves with
        foreground packets instead of monopolizing links.
    mode:
        ``"migrate"`` pays the real cost; ``"teleport"`` reproduces the
        PR-2 instant remap (zero traffic) for baseline comparisons.
    """

    def __init__(
        self,
        sim: NetworkSimulator,
        mapper: AddressMapper,
        directory: PageDirectory,
        memory_node: Callable[[int], MemoryNode],
        rate_limit_bytes_per_cycle: float = 16.0,
        max_inflight_pages: int = 4,
        chunk_bytes: int = 512,
        mode: str = "migrate",
        tclass: int = 0,
    ) -> None:
        if rate_limit_bytes_per_cycle <= 0:
            raise ValueError(
                f"rate limit must be positive, got {rate_limit_bytes_per_cycle}"
            )
        if max_inflight_pages < 1:
            raise ValueError(
                f"max_inflight_pages must be >= 1, got {max_inflight_pages}"
            )
        if chunk_bytes < sim.config.cacheline_bytes:
            raise ValueError(
                f"chunk_bytes must be at least one cache line "
                f"({sim.config.cacheline_bytes}), got {chunk_bytes}"
            )
        if mode not in ("migrate", "teleport"):
            raise ValueError(f"unknown migration mode {mode!r}")
        self.sim = sim
        self.mapper = mapper
        self.directory = directory
        self.memory_node = memory_node
        self.rate_limit = rate_limit_bytes_per_cycle
        self.max_inflight_pages = max_inflight_pages
        self.chunk_bytes = chunk_bytes
        self.mode = mode
        #: Traffic class stamped on MIG_READ/MIG_DATA packets.  With a
        #: QoS table installed, tagging migrations as the rate-shaped
        #: background class keeps bulk transfers out of the foreground's
        #: credit reservation; the default 0 leaves classless runs
        #: bit-identical.
        self.tclass = tclass
        self.page_bytes = mapper.interleave_bytes
        self.issue_interval = max(1, round(self.page_bytes / self.rate_limit))
        self.records: list[MigrationRecord] = []
        self._queue: deque[_Batch] = deque()
        self._current: _Batch | None = None
        self._inflight_pages = 0
        self._next_issue_at = 0
        self._pump_armed_at: int | None = None
        sim.on_delivery(self._on_delivery)

    # -- public API ---------------------------------------------------------

    @property
    def busy(self) -> bool:
        """A batch is executing or queued."""
        return self._current is not None or bool(self._queue)

    @property
    def total_bytes_moved(self) -> int:
        return sum(r.bytes_moved for r in self.records)

    @property
    def total_pages_moved(self) -> int:
        return sum(r.pages_moved for r in self.records)

    def migrate_out(
        self, nodes, on_done: Callable[[int], None] | None = None
    ) -> MigrationRecord:
        """Evacuate *nodes*: move their pages to the surviving actives.

        Advances the mapper generation immediately (new requests target
        the post-migration placement; the directory covers the
        transition), then streams the delta.  ``on_done(now)`` fires
        when the last page has landed — the reconfiguration pipeline's
        cue that the victims hold no data and may lose their links.
        """
        victims = set(int(n) for n in nodes)
        survivors = [n for n in self.mapper.nodes if n not in victims]
        return self._retarget(self.mapper.rebalance(survivors), "out", nodes, on_done)

    def migrate_in(
        self, nodes, on_done: Callable[[int], None] | None = None
    ) -> MigrationRecord:
        """Repatriate pages homed on the re-activated *nodes*.

        The nodes must belong to the mapper's home order (a gate-off or
        unmount put them there).  A genuinely new node id would silently
        fall into ``rebalance``'s fresh-interleave branch — reshuffling
        the entire footprint and invalidating every stored local offset
        — so it is rejected instead: a node outside the interleave
        holds no data and needs an explicit remap policy, not a
        migration.
        """
        woken = [int(n) for n in nodes]
        unknown = sorted(set(woken) - set(self.mapper.home))
        if unknown:
            raise ValueError(
                f"nodes {unknown} are outside the mapper's home order; "
                "migrate_in only repatriates previously gated nodes"
            )
        active = set(self.mapper.nodes) | set(woken)
        return self._retarget(self.mapper.rebalance(sorted(active)), "in", nodes, on_done)

    # -- batch machinery ----------------------------------------------------

    def transfer(
        self,
        moves: list[tuple[int, int, int]],
        kind: str,
        nodes,
        on_done: Callable[[int], None] | None = None,
    ) -> MigrationRecord:
        """Stream an explicit list of ``(page, src, dst)`` moves.

        Each source must be the page's current directory owner.  This
        is the batch machinery behind :meth:`migrate_out` /
        :meth:`migrate_in` exposed directly, so callers that compute
        placement outside the mapper-delta path — fault recovery
        reconstructing a crashed node's pages from their surviving
        replicas — pay the same rate-limited network cost.
        """
        now = self.sim.now
        record = MigrationRecord(
            kind=kind,
            nodes=tuple(int(n) for n in nodes),
            mode=self.mode,
            t_start=now,
            pages_planned=len(moves),
        )
        self.records.append(record)
        if self.mode == "teleport" or not moves:
            # Instant remap: the PR-2 behaviour, kept as the measurable
            # baseline (and the trivial no-data case).
            if self.mode == "teleport":
                for page, _src, dst in moves:
                    self.directory.teleport(page, dst)
            record.t_end = now
            record.pages_moved = len(moves) if self.mode == "teleport" else 0
            if on_done is not None:
                self.sim.schedule(now, on_done)
            return record
        self._queue.append(
            _Batch(moves=list(moves), record=record, on_done=on_done)
        )
        self._start_next_batch(now)
        return record

    def _retarget(
        self,
        new_mapper: AddressMapper,
        kind: str,
        nodes,
        on_done: Callable[[int], None] | None,
    ) -> MigrationRecord:
        old_mapper, self.mapper = self.mapper, new_mapper
        moves = migration_delta(old_mapper, new_mapper, self.directory.pages)
        return self.transfer(moves, kind, nodes, on_done)

    def _start_next_batch(self, now: int) -> None:
        if self._current is not None or not self._queue:
            return
        self._current = self._queue.popleft()
        self._current.record.t_start = now
        self._next_issue_at = now
        self._pump(now)

    def _pump(self, now: int) -> None:
        """Issue moves while the rate limit and in-flight cap allow."""
        batch = self._current
        if batch is None:
            return
        if self._pump_armed_at is not None and now >= self._pump_armed_at:
            self._pump_armed_at = None
        while (
            not batch.issued_all
            and self._inflight_pages < self.max_inflight_pages
        ):
            if now < self._next_issue_at:
                if self._pump_armed_at != self._next_issue_at:
                    self._pump_armed_at = self._next_issue_at
                    self.sim.schedule(self._next_issue_at, self._pump)
                return
            page, src, dst = batch.moves[batch.next_index]
            batch.next_index += 1
            self._next_issue_at = now + self.issue_interval
            self._issue_move(now, page, src, dst)

    def _issue_move(self, now: int, page: int, src: int, dst: int) -> None:
        self.directory.begin_move(page, src, dst)
        self._inflight_pages += 1
        request = Packet(
            src=dst,
            dst=src,
            size_flits=self.sim.config.packet_flits(REQUEST_HEADER_BYTES),
            payload_bytes=REQUEST_HEADER_BYTES,
            kind=PacketKind.MIG_READ,
            tclass=self.tclass,
            measured=False,
            context=(page, src, dst),
        )
        self.sim.send(request, now)

    # -- delivery handling --------------------------------------------------

    def _on_delivery(self, packet: Packet, now: int) -> None:
        if packet.kind is PacketKind.MIG_READ:
            self._serve_pull(packet, now)
        elif packet.kind is PacketKind.MIG_DATA:
            self._receive_chunk(packet, now)

    def _serve_pull(self, packet: Packet, now: int) -> None:
        """Old owner: DRAM-read the page, stream it out in chunks."""
        page, src, dst = packet.context
        local = self.mapper.local_offset(self.mapper.page_addr(page))
        ready = self.memory_node(src).service_bulk(now, local, self.page_bytes)
        chunks = -(-self.page_bytes // self.chunk_bytes)
        batch = self._current
        if batch is None:  # pragma: no cover - batches outlive their pulls
            raise RuntimeError(f"MIG_READ for page {page} with no active batch")
        batch.pending_chunks[page] = chunks
        config = self.sim.config
        for index in range(chunks):
            payload = min(self.chunk_bytes, self.page_bytes - index * self.chunk_bytes)
            data = Packet(
                src=src,
                dst=dst,
                size_flits=config.packet_flits(payload),
                payload_bytes=payload,
                kind=PacketKind.MIG_DATA,
                tclass=self.tclass,
                measured=False,
                context=(page, src, dst),
            )
            self.sim.send(data, ready)
            batch.record.chunks_sent += 1

    def _receive_chunk(self, packet: Packet, now: int) -> None:
        """New owner: last chunk in -> DRAM write -> page lands."""
        page, _src, dst = packet.context
        batch = self._current
        if batch is None:  # pragma: no cover
            raise RuntimeError(f"MIG_DATA for page {page} with no active batch")
        batch.pending_chunks[page] -= 1
        if batch.pending_chunks[page] > 0:
            return
        del batch.pending_chunks[page]
        local = self.mapper.local_offset(self.mapper.page_addr(page))
        done = self.memory_node(dst).service_bulk(now, local, self.page_bytes)
        self.sim.schedule(done, lambda t, p=page, b=batch: self._land(t, p, b))

    def _land(self, now: int, page: int, batch: _Batch) -> None:
        self.directory.land(page, now)
        self._inflight_pages -= 1
        batch.record.pages_moved += 1
        batch.record.bytes_moved += self.page_bytes
        if batch.issued_all and self._inflight_pages == 0:
            batch.record.t_end = now
            self._current = None
            if batch.on_done is not None:
                batch.on_done(now)
            self._start_next_batch(now)
        else:
            self._pump(now)
