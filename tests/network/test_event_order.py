"""Property test: the calendar event queue pops in exact ``(time, seq)`` order.

The simulator files events under their cycle in seq-sorted deques
(:class:`~repro.network.simulator.NetworkSimulator`).  This test drives
it and a plain ``heapq`` reference with the same operations and asserts
that both process the same events at the same ``(time, seq)`` points,
in the same order, and agree on the pending count throughout:

* fresh pushes at ``t >= now``, from outside :meth:`run` and from
  inside an event (including pushes at ``now`` into the cycle being
  drained);
* reserved-seq pushes — a number allocated earlier, queued later, the
  way the lazy core arms a ``LINK_FREE`` retry — including inserts into
  the cycle being drained;
* ``run(until)`` stops and resumes;
* a ``max_events`` exception raised mid-cycle, then resumed.

Every event is a ``_CALL`` whose callback replays a scripted list of
reactions, indexed by the order in which events were created; both
sides create events in processing order, so they stay in lockstep
exactly as long as their orders agree.  ``HYPOTHESIS_PROFILE=ci`` runs
more, derandomized examples.
"""

from __future__ import annotations

import heapq
import math
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import GreediestRouting
from repro.core.topology import StringFigureTopology
from repro.network.policies import GreedyPolicy
from repro.network.simulator import _CALL, NetworkSimulator

_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"

_TOPOLOGY = StringFigureTopology(9, 4, seed=42)

#: A reaction: ("push", delay), ("reserve",) or
#: ("push_reserved", delay, pick) — pick selects from the reserved pool.
_reaction = st.one_of(
    st.tuples(st.just("push"), st.integers(0, 5)),
    st.tuples(st.just("reserve")),
    st.tuples(st.just("push_reserved"), st.integers(0, 5), st.integers(0, 7)),
)
#: A top-level step: any reaction, or a run / limited run.
_step = st.one_of(
    _reaction,
    st.tuples(st.just("run"), st.one_of(st.none(), st.integers(0, 8))),
    st.tuples(st.just("limit"), st.integers(0, 12)),
)


class _Side:
    """Shared driver: replays reactions against one queue backend."""

    def __init__(self, plans: list[list[tuple]]) -> None:
        self.plans = plans
        self.log: list[tuple[int, int, int]] = []
        self.pool: list[int] = []
        self.next_id = 0

    def fire(self, event_id: int) -> None:
        now, cur_seq = self.point()
        self.log.append((now, cur_seq, event_id))
        if event_id < len(self.plans):
            for reaction in self.plans[event_id]:
                self.apply(reaction)

    def apply(self, reaction: tuple) -> None:
        now, cur_seq = self.point()
        kind = reaction[0]
        if kind == "push":
            self.push(now + reaction[1], self._new_id())
        elif kind == "reserve":
            self.pool.append(self.reserve())
        elif self.pool:  # push_reserved
            seq = self.pool.pop(reaction[2] % len(self.pool))
            t = now + reaction[1]
            # A retry always sorts after the current processing point
            # (its channel is still busy there).
            if (t, seq) <= (now, cur_seq):
                t = now + 1
            self.push_reserved(t, seq, self._new_id())

    def _new_id(self) -> int:
        event_id = self.next_id
        self.next_id += 1
        return event_id


class _SimSide(_Side):
    """The simulator's calendar queue, driven through its own run loop."""

    def __init__(self, plans) -> None:
        super().__init__(plans)
        routing = GreediestRouting(_TOPOLOGY)
        self.sim = NetworkSimulator(_TOPOLOGY, GreedyPolicy(routing))

    def point(self) -> tuple[int, int]:
        return self.sim.now, self.sim._cur_seq

    def _callback(self, event_id: int):
        return lambda _now: self.fire(event_id)

    def push(self, t: int, event_id: int) -> None:
        self.sim.schedule(t, self._callback(event_id))

    def reserve(self) -> int:
        # What a lazy send does: allocate the LINK_FREE seq, elide it.
        self.sim._seq += 1
        self.sim._link_events_elided += 1
        return self.sim._seq

    def push_reserved(self, t: int, seq: int, event_id: int) -> None:
        # What arming a retry does: materialize the elided event.
        self.sim._link_events_elided -= 1
        self.sim._push_reserved(t, seq, _CALL, self._callback(event_id), None)

    def run(self, until, max_events=None) -> bool:
        sim = self.sim
        saved = sim.max_events
        if max_events is not None:
            sim.max_events = sim._events_processed + max_events
        try:
            sim.run(until)
        except RuntimeError:
            return True
        finally:
            sim.max_events = saved
        return False

    def pending(self) -> int:
        return self.sim.pending_events


class _HeapSide(_Side):
    """Reference: one binary heap of ``(time, seq, event_id)``."""

    def __init__(self, plans) -> None:
        super().__init__(plans)
        self.heap: list[tuple[int, int, int]] = []
        self.seq = 0
        self.now = 0
        self.cur_seq = 0
        self.processed = 0

    def point(self) -> tuple[int, int]:
        return self.now, self.cur_seq

    def push(self, t: int, event_id: int) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (max(t, self.now), self.seq, event_id))

    def reserve(self) -> int:
        self.seq += 1
        return self.seq

    def push_reserved(self, t: int, seq: int, event_id: int) -> None:
        heapq.heappush(self.heap, (t, seq, event_id))

    def run(self, until, max_events=None) -> bool:
        limit = math.inf if until is None else until
        stop = math.inf if max_events is None else self.processed + max_events
        while self.heap:
            t = self.heap[0][0]
            if t > limit:
                break
            self.now = t
            if self.processed >= stop:
                return True
            _t, self.cur_seq, event_id = heapq.heappop(self.heap)
            self.processed += 1
            self.fire(event_id)
        if until is not None:
            self.now = max(self.now, until)
        return False

    def pending(self) -> int:
        return len(self.heap)


def _check(sim_side: _SimSide, ref: _HeapSide) -> None:
    assert sim_side.log == ref.log
    assert (sim_side.sim.now, sim_side.sim._cur_seq) == (ref.now, ref.cur_seq)
    queued = sorted(
        (t, seq) for t, seq, *_rest in sim_side.sim._queued_events()
    )
    assert queued == sorted((t, seq) for t, seq, _id in ref.heap)
    assert sim_side.pending() == ref.pending() == len(queued)


@settings(
    max_examples=400 if _CI else 150,
    derandomize=_CI,
    deadline=None,
)
@given(
    plans=st.lists(st.lists(_reaction, max_size=3), max_size=40),
    steps=st.lists(_step, min_size=1, max_size=25),
)
def test_calendar_pops_in_heap_order(plans, steps):
    sim_side, ref = _SimSide(plans), _HeapSide(plans)
    for step in steps:
        kind = step[0]
        for side in (sim_side, ref):
            if kind == "run":
                until = None if step[1] is None else side.point()[0] + step[1]
                assert not side.run(until)
            elif kind == "limit":
                side.raised = side.run(None, max_events=step[1])
            else:
                side.apply(step)
        if kind == "limit":
            assert sim_side.raised == ref.raised
        _check(sim_side, ref)
    for side in (sim_side, ref):
        assert not side.run(None)
    _check(sim_side, ref)
    assert ref.pending() == 0
