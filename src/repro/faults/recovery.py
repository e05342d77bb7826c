"""Crash recovery: excise the dead node, reconstruct its data.

A node crash is the one fault that cannot be routed around and
forgotten: the crashed router's links must formally leave the topology
(on String Figure, the space-0 ring gets its shortcut patch and the
neighbors' tables their bit flips), and the memory pages that lived in
the crashed node's DRAM must be accounted for — reconstructed from a
surviving replica when one exists, ruled *lost* when none does.

The :class:`RecoveryOrchestrator` deliberately owns no new machinery.
Topology excision reuses the online reconfiguration pipeline
(:class:`~repro.network.elastic.LiveReconfigurator` ``unmount``: the
drain converges because the detector already drops traffic destined to
the dead node; the block window parks stragglers; the switch patches
the ring), and data reconstruction reuses the migration engine
(:meth:`~repro.memory.migration.MigrationEngine.transfer` streams each
recovered page from its replica to its rebalanced home as rate-limited
``MIG_READ``/``MIG_DATA`` traffic competing with the foreground load).

Mirroring model
---------------

``mirrored=True`` assumes every page has one replica, held by the next
*surviving* node after the page's owner in the address interleave
order (the canonical primary-backup placement).  On a crash the
replica instantly becomes the authoritative copy (a directory bit
flip: :meth:`PageDirectory.teleport` — the data is already there), and
the pages are then physically re-homed to the post-crash placement so
capacity stays balanced.  A single crash therefore loses **zero**
pages.  ``mirrored=False`` models replica-less deployments: every page
resident on the crashed node is destroyed and accounted in
``PageDirectory.lost`` — the number the paper's availability argument
is about.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultRecord

__all__ = ["RecoveryOrchestrator"]

#: Retry period while a previous recovery transfer still runs
#: (recoveries are serialized; a crash during another crash's
#: reconstruction waits its turn).
BUSY_POLL_CYCLES = 128
#: Hard bound on that wait: a transfer that never completes (e.g. its
#: chunks were lost beyond the retry budget) must fail the run promptly
#: with a diagnostic, not spin the poll until the simulator's event cap.
BUSY_WAIT_HORIZON = 200_000


class RecoveryOrchestrator:
    """Drives post-crash excision and page reconstruction.

    Parameters
    ----------
    sim, layer:
        Simulator and fault layer.
    live:
        :class:`~repro.network.elastic.LiveReconfigurator` for String
        Figure topologies (None on baselines — their graph repair
        already excised the node before this runs).
    graph_repair:
        :class:`~repro.faults.detector.GraphRepair` for baselines.
    engine, directory:
        Optional :class:`~repro.memory.migration.MigrationEngine` and
        :class:`~repro.memory.migration.PageDirectory` — the page
        layer.  Without them recovery is routing-only.
    mirrored:
        Whether every page has a surviving replica (see module doc).
    """

    def __init__(
        self,
        sim,
        layer,
        live=None,
        graph_repair=None,
        engine=None,
        directory=None,
        mirrored: bool = True,
    ) -> None:
        self.sim = sim
        self.layer = layer
        self.live = live
        self.graph_repair = graph_repair
        self.engine = engine
        self.directory = directory
        self.mirrored = mirrored
        self.pages_lost = 0
        self.pages_recovered = 0
        self.pages_rehomed = 0
        self.recoveries = 0
        self._pending_unmount: dict[int, tuple] = {}
        if live is not None:
            live.on_complete.append(self._on_live_event)

    # -- entry point (called by the detector) ------------------------------

    def handle_crash(self, record: "FaultRecord", since: int | None = None) -> None:
        """Excise ``record.node`` and reconstruct its pages."""
        if self.engine is not None and self.engine.busy:
            now = self.sim.now
            if since is None:
                since = now
            if now - since > BUSY_WAIT_HORIZON:
                raise RuntimeError(
                    f"recovery of node {record.node} waited "
                    f"{now - since} cycles for a previous migration "
                    "batch that never completed — transfer wedged "
                    "(chunks lost beyond the retry budget?)"
                )
            self.sim.schedule(
                now + BUSY_POLL_CYCLES,
                lambda t, record=record, since=since: self.handle_crash(
                    record, since
                ),
            )
            return
        node = record.node
        self.recoveries += 1
        moves = self._plan_pages(node, record)
        if self.live is not None:
            self._pending_unmount[node] = (record, moves)
            self.live.unmount([node])
        else:
            if self.graph_repair is not None:
                self.graph_repair.remove_node(node)
            record.t_repaired = self.sim.now
            self._start_transfer(record, moves)

    # -- page accounting ----------------------------------------------------

    def _plan_pages(self, node: int, record: "FaultRecord") -> list[tuple[int, int, int]]:
        """Rule on every page that lived on *node*; return the moves.

        Mirrored: ownership flips to the surviving replica (a directory
        bit — the data is already there) and the page is queued to move
        to its post-crash home.  Unmirrored: the page is lost.
        """
        engine, directory = self.engine, self.directory
        if engine is None or directory is None:
            return []
        affected = directory.resident_on(node)
        survivors = [m for m in engine.mapper.nodes if m != node]
        if not survivors:
            raise RuntimeError(f"node {node} crashed with no survivors")
        recovered: list[int] = []
        for page in affected:
            if self.mirrored:
                mirror = self._mirror_of(page, node, survivors)
                directory.teleport(page, mirror)
                recovered.append(page)
                record.pages_recovered += 1
                self.pages_recovered += 1
            else:
                directory.drop_page(page)
                record.pages_lost += 1
                self.pages_lost += 1
        new_mapper = engine.mapper.rebalance(survivors)
        engine.mapper = new_mapper
        moves: list[tuple[int, int, int]] = []
        for page in recovered:
            src = directory.owner_of(page)
            dst = new_mapper.node_of(new_mapper.page_addr(page))
            if src != dst:
                moves.append((page, src, dst))
        return moves

    def _mirror_of(self, page: int, owner: int, survivors: list[int]) -> int:
        """The page's surviving replica holder (next-in-interleave)."""
        home = self.engine.mapper.home
        alive = set(survivors)
        pos = home.index(owner) if owner in home else page % len(home)
        for step in range(1, len(home) + 1):
            candidate = home[(pos + step) % len(home)]
            if candidate in alive and candidate != owner:
                return candidate
        raise RuntimeError(f"no surviving mirror for page {page}")

    # -- transfer chaining ---------------------------------------------------

    def _on_live_event(self, event) -> None:
        if event.kind != "unmount":
            return
        for node in event.nodes:
            pending = self._pending_unmount.pop(node, None)
            if pending is None:
                continue
            record, moves = pending
            record.t_repaired = self.sim.now
            self._start_transfer(record, moves)

    def _start_transfer(self, record: "FaultRecord", moves) -> None:
        if self.engine is None or not moves:
            record.t_recovered = self.sim.now
            return

        def done(now: int, record=record) -> None:
            record.t_recovered = now
            self.pages_rehomed += record.migration.pages_moved

        record.migration = self.engine.transfer(
            moves, kind="recover", nodes=(record.node,), on_done=done
        )
