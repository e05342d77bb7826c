"""Cycle-domain timeseries sampling over a :class:`MetricsRegistry`.

The recorder never schedules simulator events (that would perturb the
deterministic core); instead the probe layer checks ``next_at`` on
every processed event and calls :meth:`TimeSeriesRecorder.sample` at
the first event on or past each interval boundary.  Rows therefore
land on *event* cycles, not exact multiples of the interval — the
correct behavior for a discrete-event core where nothing observable
happens between events.

Counter columns are recorded as **per-row deltas** (the increment
since the previous row), so after a :meth:`flush` the column sums
reconcile *exactly* with the final counter totals — the property
``repro trace`` asserts against ``SimStats``.  Gauges are recorded as
point-in-time values; histograms as cheap ``count``/``mean`` pairs
(full quantiles stay a scrape-time concern, see
:meth:`~repro.obs.registry.MetricsRegistry.snapshot`).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

__all__ = ["TimeSeriesRecorder"]


class TimeSeriesRecorder:
    """Sample registry metrics every *interval* simulated cycles."""

    def __init__(self, registry: "MetricsRegistry", interval: int = 256) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.registry = registry
        self.interval = interval
        #: Next boundary; the probe layer compares ``now >= next_at``
        #: on its per-event hook, so this stays a plain attribute.
        self.next_at = interval
        self.rows: list[dict] = []
        self._last: dict[str, float] = {}

    def sample(self, now: int) -> None:
        """Record one row at simulated cycle *now* and advance the boundary."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        last = self._last
        for s in self.registry.collect():
            if s.kind == "counter":
                key = s.key
                counters[key] = s.value - last.get(key, 0)
                last[key] = s.value
            elif s.kind == "gauge":
                gauges[s.key] = s.value
            else:
                sketch = s.value
                if sketch.count:
                    gauges[s.key + ":mean"] = sketch.mean
                gauges[s.key + ":count"] = sketch.count
        self.rows.append({"cycle": now, "counters": counters, "gauges": gauges})
        # Strictly-future boundary, aligned to the interval grid.
        self.next_at = now - (now % self.interval) + self.interval

    def flush(self, now: int) -> None:
        """Record the tail window so counter sums match final totals."""
        if not self.rows or self.rows[-1]["cycle"] != now or self._dirty():
            self.sample(now)

    def _dirty(self) -> bool:
        """True when any counter moved since the last recorded row."""
        last = self._last
        for s in self.registry.collect():
            if s.kind == "counter" and s.value != last.get(s.key, 0):
                return True
        return False

    def sum_counters(self) -> dict[str, float]:
        """Column sums of every counter delta across recorded rows.

        After :meth:`flush` this equals the final counter totals —
        the reconciliation invariant the trace CLI checks.
        """
        totals: dict[str, float] = {}
        for row in self.rows:
            for key, delta in row["counters"].items():
                totals[key] = totals.get(key, 0) + delta
        return totals

    def to_jsonl(self) -> str:
        """One JSON object per row, newline-separated."""
        return "\n".join(
            json.dumps(row, sort_keys=True) for row in self.rows
        ) + ("\n" if self.rows else "")

    def write_jsonl(self, path: str) -> None:
        """Write :meth:`to_jsonl` to *path*."""
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())
