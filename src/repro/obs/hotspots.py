"""Hotspot analytics: where the queueing cycles actually go.

:class:`HotspotAggregator` rolls the per-dequeue measurements that
:class:`~repro.obs.anatomy.LatencyAnatomy` feeds it into the three
views operators actually ask for when a p99 moves:

* **per-link contention** — for every directed link, an exact
  :class:`~repro.network.stats.QuantileSketch` of queue-wait cycles
  (measured head-ready to transmission start) and of output-queue
  occupancy at enqueue time, plus total blocked cycles — the ranking
  key of the top-K contended-links report;
* **per-router roll-ups** — the same totals summed over each router's
  *outgoing* links (the queues live at the upstream router, so that is
  where the blocked packets physically sit);
* **class-on-class interference** — a K x K matrix of cycles packets
  of class *i* spent blocked while a packet of class *j* occupied the
  wire they were waiting for (the causal attribution behind "bulk is
  starving latency on these links").

Everything here is pure accumulation — no events, no sequence numbers
— so it inherits the bit-identicality guarantee of the probes layer.
"""

from __future__ import annotations

from typing import Any

from repro.network.stats import QuantileSketch

__all__ = ["HotspotAggregator", "LinkContention"]


class LinkContention:
    """Contention accumulators for one directed link ``u -> v``."""

    __slots__ = ("u", "v", "wait_cycles", "wait_sketch", "occupancy_sketch")

    def __init__(self, u: int, v: int) -> None:
        self.u = u
        self.v = v
        #: Total cycles packets spent head-ready but not transmitting.
        self.wait_cycles = 0
        #: One sample per dequeue (its wait) and per enqueue (the queue
        #: occupancy it joined at).
        self.wait_sketch = QuantileSketch()
        self.occupancy_sketch = QuantileSketch()

    @property
    def enqueues(self) -> int:
        """Packets that joined the link's output queue."""
        return self.occupancy_sketch.count

    @property
    def dequeues(self) -> int:
        """Packets that left the link's output queue."""
        return self.wait_sketch.count

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe row (one line of the per-link CSV / report)."""
        return {
            "link": [self.u, self.v],
            "enqueues": self.enqueues,
            "dequeues": self.dequeues,
            "wait_cycles": self.wait_cycles,
            "wait_p50": self.wait_sketch.percentile(50),
            "wait_p99": self.wait_sketch.percentile(99),
            "wait_max": self.wait_sketch.percentile(100),
            "occupancy_p50": self.occupancy_sketch.percentile(50),
            "occupancy_p99": self.occupancy_sketch.percentile(99),
            "occupancy_max": self.occupancy_sketch.percentile(100),
        }


class HotspotAggregator:
    """Per-link/per-router contention views plus the interference matrix."""

    #: Columns of :meth:`links_csv`, in order.
    CSV_FIELDS = (
        "u", "v", "enqueues", "dequeues", "wait_cycles", "wait_p50",
        "wait_p99", "wait_max", "occupancy_p50", "occupancy_p99",
        "occupancy_max",
    )

    def __init__(self) -> None:
        #: Directed link (u, v) -> accumulators.
        self.links: dict[tuple[int, int], LinkContention] = {}
        #: ``matrix[i][j]`` = cycles class *i* spent blocked behind a
        #: transmitting class-*j* packet (sparse nested dicts).
        self.matrix: dict[int, dict[int, int]] = {}

    # -- accumulation (called by LatencyAnatomy on the hook path) ----------

    def link(self, u: int, v: int) -> LinkContention:
        """The accumulator of directed link ``u -> v`` (made on demand)."""
        key = (u, v)
        entry = self.links.get(key)
        if entry is None:
            entry = LinkContention(u, v)
            self.links[key] = entry
        return entry

    def note_enqueue(self, entry: LinkContention, occupancy: int) -> None:
        """One packet joined the link's output queue at *occupancy*."""
        entry.occupancy_sketch.add(occupancy)

    def note_wait(self, entry: LinkContention, wait: int) -> None:
        """One packet left the queue after *wait* head-ready cycles."""
        entry.wait_cycles += wait
        entry.wait_sketch.add(wait)

    def note_blocking(self, blocked_cls: int, behind_cls: int,
                      cycles: int) -> None:
        """*blocked_cls* spent *cycles* behind a *behind_cls* packet."""
        row = self.matrix.get(blocked_cls)
        if row is None:
            row = {}
            self.matrix[blocked_cls] = row
        row[behind_cls] = row.get(behind_cls, 0) + cycles

    # -- reports -----------------------------------------------------------

    def top_links(self, k: int = 8) -> list[LinkContention]:
        """The *k* most contended links by total blocked cycles."""
        return sorted(
            self.links.values(),
            key=lambda e: (-e.wait_cycles, e.u, e.v),
        )[:k]

    def router_rollup(self, k: int = 8) -> list[dict[str, Any]]:
        """Per-router contention (outgoing links summed), top *k*."""
        per_router: dict[int, dict[str, int]] = {}
        for entry in self.links.values():
            row = per_router.setdefault(
                entry.u, {"router": entry.u, "wait_cycles": 0,
                          "dequeues": 0, "links": 0},
            )
            row["wait_cycles"] += entry.wait_cycles
            row["dequeues"] += entry.dequeues
            row["links"] += 1
        return sorted(
            per_router.values(),
            key=lambda r: (-r["wait_cycles"], r["router"]),
        )[:k]

    def matrix_table(
        self, class_names: dict[int, str] | None = None
    ) -> dict[str, dict[str, int]]:
        """The interference matrix with readable class labels.

        Keys are blocked-class names, values map blocking-class name to
        cycles.  Unmapped ids label as ``cls<N>``.
        """
        names = class_names or {}

        def label(cls: int) -> str:
            return names.get(cls, f"cls{cls}")

        return {
            label(i): {
                label(j): cycles
                for j, cycles in sorted(row.items())
            }
            for i, row in sorted(self.matrix.items())
        }

    def links_csv(self) -> str:
        """All per-link rows as CSV text (header + one row per link)."""
        lines = [",".join(self.CSV_FIELDS)]
        for entry in sorted(
            self.links.values(),
            key=lambda e: (-e.wait_cycles, e.u, e.v),
        ):
            row = entry.to_dict()
            lines.append(",".join(str(x) for x in (
                entry.u, entry.v, row["enqueues"], row["dequeues"],
                row["wait_cycles"], row["wait_p50"], row["wait_p99"],
                row["wait_max"], row["occupancy_p50"],
                row["occupancy_p99"], row["occupancy_max"],
            )))
        return "\n".join(lines) + "\n"

    def summary(
        self,
        top_k: int = 8,
        class_names: dict[int, str] | None = None,
    ) -> dict[str, Any]:
        """JSON-safe roll-up (artifacts, daemon stats, report tables)."""
        return {
            "links_tracked": len(self.links),
            "top_links": [e.to_dict() for e in self.top_links(top_k)],
            "top_routers": self.router_rollup(top_k),
            "interference_matrix": self.matrix_table(class_names),
        }
