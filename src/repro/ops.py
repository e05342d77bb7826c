"""One vocabulary for live changes to the fabric.

Everything that changes a running fabric is an :class:`Op`: gating
nodes off and waking them (the paper's §III-C power management),
unmounting and mounting them, firing an unplanned fault, and the
service's ``drain``.  Churn schedules, the utilization controller,
migration, fault plans, the service and its request log all build ops;
:func:`apply` checks and runs one, keeping the one record of gated
batches, :attr:`repro.fabric.Fabric.gated`.  See "Live changes as ops"
in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.fabric import Fabric

__all__ = ["FAULT_KINDS", "VERBS", "VICTIM_SPACING", "Op", "apply", "node_list_error", "schedule"]

VERBS = ("gate_off", "gate_on", "unmount", "mount", "fault", "drain")
FAULT_KINDS = ("link_down", "link_flap", "node_crash", "node_hang")

#: Verbs that take nodes out of the network, and those that bring them back.
_DOWN = ("gate_off", "unmount")
_UP = ("gate_on", "mount")
#: Ring slots kept between the victims a gate-off chooses itself.
VICTIM_SPACING = 2
#: Request-log names of the verbs whose log name differs (log version 1).
_LOG_VERB = {"gate_off": "scale_down", "gate_on": "scale_up"}
_OP_VERB = {name: verb for verb, name in _LOG_VERB.items()}
_ARGS = ("fraction", "count", "nodes", "fault_kind", "node", "link", "duration")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number_error(name: str, value: Any, top: float, integral: bool = False) -> str | None:
    """Why *value* is not an absent or in-range ``[0, top]`` argument."""
    if value is None:
        return None
    if _is_int(value) or (not integral and isinstance(value, float)):
        if 0 <= value <= top:
            return None
    kind = "an integer" if integral else "a number"
    return f"{name} must be {kind} in [0, {top}]"


def node_list_error(nodes: Any, num_nodes: int) -> str | None:
    """Why *nodes* is not a list of distinct node ids of a network."""
    if not isinstance(nodes, (list, tuple)) or not all(
        _is_int(node) and 0 <= node < num_nodes for node in nodes
    ):
        return f"nodes must be a list of node ids in [0, {num_nodes})"
    if len(set(nodes)) != len(nodes):
        return "nodes must not repeat"
    return None


@dataclass(frozen=True)
class Op:
    """One live change, to run at cycle ``t``.

    ``gate_off``/``unmount`` take ``nodes``, or a victim ``count``, or a
    ``fraction`` of the then-active network, chosen when the op runs.
    ``gate_on``/``mount`` take ``nodes``, or none to wake every gated
    node in gate order.  ``fault`` takes ``fault_kind``, optional
    ``node``/``link`` targets (else the seeded injector picks one when
    it fires) and a ``duration`` for the transient kinds.  Arguments
    are kept as given: :func:`apply` judges them.
    """

    t: int
    verb: str
    fraction: Any = None
    count: Any = None
    nodes: Any = None
    fault_kind: Any = None
    node: Any = None
    link: Any = None
    duration: Any = 0

    def to_entry(self) -> dict[str, Any]:
        """The op as a request-log ``control`` entry."""
        entry = {"kind": "control", "t": self.t, "verb": _LOG_VERB.get(self.verb, self.verb)}
        if self.verb == "fault":
            link = None if self.link is None else list(self.link)
            entry.update(
                fault_kind=self.fault_kind, node=self.node, link=link, duration=self.duration
            )
        elif self.verb != "drain":
            for name in ("fraction", "count", "nodes"):
                value = getattr(self, name)
                if value is not None:
                    entry[name] = list(value) if name == "nodes" else value
        return entry

    @classmethod
    def from_entry(cls, entry: dict[str, Any]) -> "Op":
        """The op a request-log ``control`` entry records."""
        name = entry["verb"]
        verb = _OP_VERB.get(name, name)
        if verb not in VERBS or name in _LOG_VERB:
            raise ValueError(f"unknown control verb {name!r}")
        return cls(entry["t"], verb, **{arg: entry[arg] for arg in _ARGS if arg in entry})


def _argument_error(fabric: "Fabric", op: Op) -> str | None:
    """Why *op*'s arguments cannot apply to *fabric* in any state."""
    n = fabric.sim.topology.num_nodes
    if op.verb in _DOWN or op.verb in _UP:
        if fabric.live is None:
            return "scale requires a String Figure fabric"
        if op.nodes is not None:
            return node_list_error(op.nodes, n)
        if op.verb in _UP:
            return None
        error = _number_error("fraction", op.fraction, 1.0) or _number_error(
            "count", op.count, n, integral=True
        )
        if error is None and op.fraction is None and op.count is None:
            error = "give fraction, count or nodes"
        return error
    if op.verb == "fault":
        link = op.link
        if fabric.fault_injector is None:
            return "fault requires a fault stack"
        if not _is_int(op.duration):
            return "duration must be an integer"
        if op.node is not None and not (_is_int(op.node) and 0 <= op.node < n):
            return f"node must be a node id in [0, {n})"
        if link is not None and (
            not isinstance(link, (list, tuple))
            or len(link) != 2
            or not all(_is_int(end) and 0 <= end < n for end in link)
        ):
            return f"link must be two node ids in [0, {n})"
        if op.fault_kind not in FAULT_KINDS:
            return f"unknown fault kind {op.fault_kind!r}; choose from {FAULT_KINDS}"
        if op.fault_kind in ("link_flap", "node_hang") and op.duration <= 0:
            return f"{op.fault_kind} needs a positive duration"
        return None
    if op.verb == "drain":
        return "drain pauses the service's admission: use FabricService.apply"
    return f"unknown verb {op.verb!r}"


def _state_error(verb: str, nodes: list[int], active: set[int], gated: list[int]) -> str | None:
    """Why *nodes* are not in the state *verb* needs."""
    if verb in _DOWN:
        for node in nodes:
            if node in gated or node not in active:
                return f"node {node} is not active or is already gated"
        return None if nodes else "no gateable victims"
    for node in nodes:
        if node not in gated:
            return f"node {node} is not gated"
    return None if nodes else "no gated nodes to wake"


def _victims(fabric: "Fabric", op: Op, gated: list[int]) -> list[int]:
    """The victims of a gate-off by ``count`` or ``fraction``.

    They are :meth:`~repro.network.elastic.LiveReconfigurator.select_victims`'s
    picks, less any within ``VICTIM_SPACING`` ring slots of a gated node
    whose gate-off has not run yet (so never such a node itself).  The
    picks are that far apart too, so each queued node rules out at most
    two of them: two more are asked for per queued node.
    """
    topology = fabric.sim.topology
    coords, slots = topology.coords, topology.num_nodes
    queued = [coords.ring_position(n, 0) for n in gated if topology.is_active(n)]
    count = op.count
    if count is None:
        count = int(len(topology.active_nodes) * op.fraction)

    def clear(node: int) -> bool:
        pos = coords.ring_position(node, 0)
        return all(min((pos - q) % slots, (q - pos) % slots) >= VICTIM_SPACING for q in queued)

    picks = fabric.live.select_victims(count=count + 2 * len(queued))
    return [node for node in picks if clear(node)][:count]


def apply(fabric: "Fabric", op: Op, log: list[dict[str, Any]] | None = None) -> dict[str, Any]:
    """Check *op* against the fabric as it stands and run it now.

    Answers ``{"ok": False, "error": ...}``, changing nothing, or
    ``{"ok": True, "verb": ...}`` with the nodes acted on; an accepted
    op is appended to *log* as the entry it resolved to.  A gate or
    wake goes to the live reconfigurator at once; a fault is one event
    at ``op.t``, where the injector picks any victim left open.
    """
    error = _argument_error(fabric, op)
    if error is None and op.verb != "fault":
        gated = [node for batch in fabric.gated for node in batch]
        if op.nodes is not None:
            nodes = list(op.nodes)
        elif op.verb in _DOWN:
            nodes = _victims(fabric, op, gated)
        else:
            nodes = gated
        error = _state_error(op.verb, nodes, set(fabric.sim.topology.active_nodes), gated)
        op = replace(op, fraction=None, count=None, nodes=nodes)
    if error is not None:
        return {"ok": False, "error": error}
    if log is not None:
        log.append(op.to_entry())
    if op.verb == "fault":
        fabric.sim.schedule(op.t, lambda now: fabric.fault_injector.fire(now, op))
        return {"ok": True, "verb": "fault", "fault_kind": op.fault_kind}
    if op.verb in _DOWN:
        fabric.gated.append(tuple(nodes))
    else:
        fabric.gated[:] = [
            kept for batch in fabric.gated if (kept := tuple(n for n in batch if n not in nodes))
        ]
    getattr(fabric.live, op.verb)(nodes)
    return {"ok": True, "verb": _LOG_VERB.get(op.verb, op.verb), "nodes": nodes}


def schedule(fabric: "Fabric", ops: list[Op]) -> None:
    """Run each op at its cycle, after refusing a plan that cannot apply.

    The check raises ``ValueError`` with :func:`apply`'s reason before
    the run starts.  It follows the gated record through the plan in
    cycle order; after a gate-off whose victims are chosen when it
    runs, named nodes are left to :func:`apply` until a full wake.  A
    gate or wake then runs in its own event at ``op.t``; a fault is
    scheduled by :func:`apply`.  An op that no longer applies when its
    cycle comes (no gateable victim is left, say) does nothing.
    """
    active = set(fabric.sim.topology.active_nodes)
    gated = [node for batch in fabric.gated for node in batch]
    blind = False
    for op in sorted(ops, key=lambda op: op.t):
        error = _argument_error(fabric, op)
        if error is None and op.verb != "fault" and op.nodes is not None and not blind:
            error = _state_error(op.verb, list(op.nodes), active, gated)
        if error is not None:
            raise ValueError(f"{op.verb} at cycle {op.t}: {error}")
        if op.verb in _DOWN:
            blind = blind or op.nodes is None
            gated += op.nodes or ()
            active.difference_update(op.nodes or ())
        elif op.verb in _UP:
            woken = set(gated if op.nodes is None else op.nodes)
            blind = blind and op.nodes is not None
            active |= woken
            gated = [node for node in gated if node not in woken]
    for op in ops:
        if op.verb == "fault":
            apply(fabric, op)
        else:
            fabric.sim.schedule(op.t, lambda now, op=op: apply(fabric, op))
