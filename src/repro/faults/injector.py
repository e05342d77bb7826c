"""Scheduling unplanned failures into the event loop.

A :class:`FaultPlan` is a time-ordered list of ``fault``
:class:`~repro.ops.Op` declarations — *what* fails and *when*, with
targets either pinned explicitly or left open for deterministic runtime
selection.  :func:`repro.ops.schedule` checks the plan and gives each
op one event at its cycle, where :meth:`FaultInjector.fire`
resolves the victim against the then-current network (seeded RNG, so
runs are bit-reproducible at any worker count), applies the physical
effect through the :class:`~repro.faults.layer.FaultLayer` — no drain,
no warning, the defining difference from the planned churn of
PR-2/PR-3 — notifies the :class:`~repro.faults.detector.FaultDetector`
(which will only act after its detection latency), and schedules the
restore side of transient faults (flap/hang).

Victim selection rules:

* **node_crash** — on String Figure, a cleanly-gateable victim (the
  reconfiguration manager's candidate set), so the space-0 ring stays
  patchable and the delivery guarantee survives the excision; on
  baselines, any alive node.
* **node_hang** — any alive, currently-healthy node.
* **link_down / link_flap** — a random incident wire; on String
  Figure, space-0 ring wires are excluded (they are the
  guaranteed-delivery substrate the shortcut patching protects — the
  paper's resilience claim is about the *other* links' path
  diversity).

Every fired fault leaves a :class:`FaultRecord` carrying its full
timeline (fault → detected → repaired → recovered) and loss
accounting; scenario code turns these into availability metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.ops import FAULT_KINDS, VICTIM_SPACING, Op
from repro.utils.rng import derive_rng

__all__ = ["FAULT_KINDS", "FaultPlan", "FaultRecord", "FaultInjector"]


@dataclass
class FaultPlan:
    """A time-ordered failure schedule of ``fault`` ops."""

    ops: list[Op] = field(default_factory=list)

    @classmethod
    def single_crash(cls, at: int, node: int | None = None) -> "FaultPlan":
        """One unannounced node crash (the acceptance scenario)."""
        return cls([Op(at, "fault", fault_kind="node_crash", node=node)])

    @classmethod
    def random(
        cls,
        rate: float,
        start: int,
        stop: int,
        seed: int | None = 0,
        kinds: tuple[str, ...] = FAULT_KINDS,
        flap_cycles: int = 300,
        hang_cycles: int = 500,
        max_crashes: int = 1,
    ) -> "FaultPlan":
        """Faults arriving at *rate* per cycle over ``[start, stop)``.

        Inter-arrival gaps are geometric (the Bernoulli process in
        event form, like traffic injection); kinds cycle round-robin
        through *kinds* with node crashes capped at *max_crashes* —
        each crash permanently shrinks the network, so unbounded crash
        counts measure a disappearing system, not a resilient one.
        """
        if rate <= 0:
            return cls([])
        if not kinds:
            raise ValueError("need at least one fault kind")
        import math

        rng = derive_rng(seed, "fault-plan")
        ops: list[Op] = []
        t = start
        crashes = 0
        index = 0
        while True:
            u = rng.random()
            if rate >= 1.0:
                gap = 1
            else:
                gap = max(1, math.ceil(math.log(1.0 - u) / math.log(1.0 - rate)))
            t += gap
            if t >= stop:
                break
            for _ in range(len(kinds)):
                kind = kinds[index % len(kinds)]
                index += 1
                if kind == "node_crash" and crashes >= max_crashes:
                    continue
                break
            else:
                break  # only crashes left and the cap is reached
            if kind == "node_crash":
                crashes += 1
            duration = (
                flap_cycles if kind == "link_flap"
                else hang_cycles if kind == "node_hang"
                else 0
            )
            ops.append(Op(t, "fault", fault_kind=kind, duration=duration))
        return cls(ops)


@dataclass
class FaultRecord:
    """Timeline and damage accounting of one fired fault."""

    kind: str
    t_fault: int
    node: int | None = None
    link: tuple[int, int] | None = None
    duration: int = 0
    t_detected: int | None = None
    t_restored: int | None = None  # flap/hang physical restore
    t_repaired: int | None = None  # routing state fixed
    t_recovered: int | None = None  # data reconstruction done (crash)
    lost_in_router: int = 0
    lost_mid_wire: int = 0
    swept: int = 0
    pages_lost: int = 0
    pages_recovered: int = 0
    absorbed: bool = False
    migration: Any = None

    def cleared_at(self, default: int) -> int:
        """When this fault stopped affecting the network."""
        candidates = [
            t for t in (
                self.t_recovered, self.t_repaired, self.t_restored,
                self.t_detected,
            )
            if t is not None
        ]
        return max(candidates) if candidates else default

    def unreachable_node_cycles(self, run_end: int) -> int:
        """Node-cycles of service unavailability this fault caused."""
        if self.kind == "node_crash":
            end = self.t_recovered if self.t_recovered is not None else run_end
            return max(0, end - self.t_fault)
        if self.kind == "node_hang":
            end = self.t_restored if self.t_restored is not None else run_end
            return max(0, end - self.t_fault)
        return 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "t_fault": self.t_fault,
            "node": self.node,
            "link": list(self.link) if self.link is not None else None,
            "duration": self.duration,
            "t_detected": self.t_detected,
            "t_restored": self.t_restored,
            "t_repaired": self.t_repaired,
            "t_recovered": self.t_recovered,
            "lost_in_router": self.lost_in_router,
            "lost_mid_wire": self.lost_mid_wire,
            "swept": self.swept,
            "pages_lost": self.pages_lost,
            "pages_recovered": self.pages_recovered,
            "absorbed": self.absorbed,
            "migration": (
                self.migration.to_dict() if self.migration is not None else None
            ),
        }


class FaultInjector:
    """Fires ``fault`` ops (see :func:`repro.ops.apply`) into a live simulation."""

    def __init__(
        self,
        sim,
        layer,
        detector,
        topology,
        manager=None,
        seed: int | None = 0,
    ) -> None:
        self.sim = sim
        self.layer = layer
        self.detector = detector
        self.topology = topology
        self.manager = manager  # SF ReconfigurationManager (victim picking)
        self.rng = derive_rng(seed, "fault-victims")
        self.records: list[FaultRecord] = []
        self.skipped_events = 0

    # -- victim selection ---------------------------------------------------

    def _alive_nodes(self) -> list[int]:
        layer = self.layer
        return [
            n for n in self.topology.active_nodes
            if n not in layer.crashed and n not in layer.hung
        ]

    def _pick_crash_victim(self) -> int | None:
        if self.manager is not None:
            candidates = [
                n for n in self.manager.gate_candidates(
                    len(self.topology.active_nodes), min_spacing=VICTIM_SPACING
                )
                if n not in self.layer.crashed and n not in self.layer.hung
            ]
        else:
            candidates = self._alive_nodes()
        if not candidates:
            return None
        return candidates[self.rng.randrange(len(candidates))]

    def _pick_hang_victim(self) -> int | None:
        candidates = self._alive_nodes()
        if not candidates:
            return None
        return candidates[self.rng.randrange(len(candidates))]

    def _link_is_eligible(self, u: int, v: int) -> bool:
        if self.sim.link_frozen(u, v) or self.sim.link_frozen(v, u):
            return False
        ring_spaces = getattr(self.topology, "ring_spaces", None)
        if ring_spaces is not None and 0 in ring_spaces(u, v):
            return False  # keep the guaranteed-delivery ring intact
        return True

    def _pick_link_victim(self) -> tuple[int, int] | None:
        alive = self._alive_nodes()
        if not alive:
            return None
        for _ in range(64):
            u = alive[self.rng.randrange(len(alive))]
            neighbors = [
                w for w in self.topology.neighbors(u)
                if w not in self.layer.crashed and w not in self.layer.hung
            ]
            if not neighbors:
                continue
            v = neighbors[self.rng.randrange(len(neighbors))]
            if self._link_is_eligible(u, v):
                return (u, v)
        return None

    # -- firing --------------------------------------------------------------

    def fire(self, now: int, op: Op) -> None:
        """Resolve *op*'s victim against the network now and fail it."""
        kind = op.fault_kind
        if kind in ("node_crash", "node_hang"):
            node = op.node
            if node is None:
                node = (
                    self._pick_crash_victim()
                    if kind == "node_crash"
                    else self._pick_hang_victim()
                )
            elif node in self.layer.crashed or node in self.layer.hung:
                node = None
            if node is None:
                self.skipped_events += 1
                return
            record = FaultRecord(
                kind=kind, t_fault=now, node=node, duration=op.duration
            )
            neighbors = list(self.topology.neighbors(node))
            in_nbrs = getattr(self.topology, "in_neighbors", None)
            if in_nbrs is not None:
                neighbors = sorted(set(neighbors) | set(in_nbrs(node)))
            if kind == "node_crash":
                in_router, mid_wire = self.layer.crash_node(node, neighbors)
                record.lost_in_router = in_router
                record.lost_mid_wire = mid_wire
            else:
                self.layer.hang_node(node, neighbors)
                self.sim.schedule(
                    now + op.duration,
                    lambda t, r=record, nbrs=neighbors: self._resume(t, r, nbrs),
                )
            self.records.append(record)
            self.detector.notice(record)
            return
        # link faults
        link = op.link
        if link is not None:
            u, v = link
            if not self._link_is_eligible(u, v):
                link = None
        else:
            link = self._pick_link_victim()
        if link is None:
            self.skipped_events += 1
            return
        u, v = link
        record = FaultRecord(
            kind=kind, t_fault=now, link=(u, v), duration=op.duration
        )
        record.lost_mid_wire = self.layer.fail_link_pair(u, v)
        if kind == "link_flap":
            self.sim.schedule(
                now + op.duration,
                lambda t, r=record: self._restore_link(t, r),
            )
        self.records.append(record)
        self.detector.notice(record)

    def _restore_link(self, now: int, record: FaultRecord) -> None:
        u, v = record.link
        if u in self.layer.crashed or v in self.layer.crashed:
            # An endpoint died while the wire was down: the flap is
            # subsumed by the crash — nothing comes back up, and the
            # routing repair must not resurrect the dead router.
            return
        self.layer.restore_link_pair(u, v)
        record.t_restored = now
        self.detector.link_restored(record)

    def _resume(self, now: int, record: FaultRecord, neighbors) -> None:
        self.layer.resume_node(record.node, neighbors)
        record.t_restored = now
        self.detector.node_resumed(record)
