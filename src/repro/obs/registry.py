"""Labeled metrics registry with pull-probes and Prometheus exposition.

Three metric kinds cover the stack:

* **counter** — monotonically increasing totals (events processed,
  packets delivered).  Named ``*_total`` by convention.
* **gauge** — point-in-time values (queue depth, in-flight pages).
* **histogram** — distributions backed by the simulator's exact
  :class:`~repro.network.stats.QuantileSketch` (latency, detection
  lag); exposed as Prometheus *summaries* (quantile-labeled samples
  plus ``_count``/``_sum``).

Besides push-style :class:`Counter`/:class:`Gauge` objects, the
registry supports **pull probes** (a callable resolved at collect
time — the natural fit for counters the simulator already keeps, like
``stats.delivered``) and **collectors** (a callable that emits any
number of samples at collect time — the fit for per-tenant or
per-link families whose label sets grow during the run).

Metric names follow Prometheus conventions: ``snake_case``, a unit
suffix, ``_total`` for counters, and every name is prefixed with the
registry namespace (default ``repro``).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.network.stats import QuantileSketch

__all__ = ["Counter", "Gauge", "MetricSample", "MetricsRegistry"]

#: Quantiles exported for histogram metrics (Prometheus summary style).
_QUANTILES = (50.0, 90.0, 99.0)


def _label_key(labels: dict[str, str] | None) -> tuple[tuple[str, str], ...]:
    """Canonical hashable form of a label set."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    """Escape a label value for the Prometheus text format."""
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def render_labels(labels: Iterable[tuple[str, str]]) -> str:
    """``{k="v",...}`` rendering shared by exposition and snapshots."""
    pairs = list(labels)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + inner + "}"


class MetricSample:
    """One resolved sample: ``(name, kind, labels, value)``.

    For histograms ``value`` is the backing
    :class:`~repro.network.stats.QuantileSketch`, whose ``count`` and
    ``total`` are the summary's ``_count`` and ``_sum``; counters and
    gauges carry a number.
    """

    __slots__ = ("name", "kind", "labels", "value")

    def __init__(self, name: str, kind: str, labels, value) -> None:
        self.name = name
        self.kind = kind
        self.labels = labels
        self.value = value

    @property
    def key(self) -> str:
        """Stable string identity, e.g. ``repro_x_total{type="wake"}``."""
        return self.name + render_labels(self.labels)


class Counter:
    """Push-style monotonic counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be >= 0 to stay monotonic)."""
        self.value += amount


class Gauge:
    """Push-style point-in-time gauge."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = value

    def track_max(self, value: float) -> None:
        """Keep the high-water mark of every value seen."""
        if value > self.value:
            self.value = value


class MetricsRegistry:
    """Registry of named, labeled metrics resolved at collect time."""

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        # key -> (full_name, kind, label_pairs, resolver)
        self._metrics: dict[tuple, tuple] = {}
        self._collectors: list[Callable] = []

    # -- registration ------------------------------------------------------

    def _full(self, name: str) -> str:
        return f"{self.namespace}_{name}" if self.namespace else name

    def _register(self, name: str, kind: str, labels, resolver):
        full = self._full(name)
        pairs = _label_key(labels)
        key = (full, pairs)
        existing = self._metrics.get(key)
        if existing is not None:
            if existing[1] != kind:
                raise ValueError(
                    f"metric {full}{render_labels(pairs)} re-registered as "
                    f"{kind} (was {existing[1]})"
                )
            self._metrics[key] = (full, kind, pairs, resolver)
            return resolver
        self._metrics[key] = (full, kind, pairs, resolver)
        return resolver

    def counter(self, name: str, labels: dict[str, str] | None = None) -> Counter:
        """Create (or replace) a push counter and return it."""
        c = Counter()
        self._register(name, "counter", labels, c)
        return c

    def gauge(self, name: str, labels: dict[str, str] | None = None) -> Gauge:
        """Create (or replace) a push gauge and return it."""
        g = Gauge()
        self._register(name, "gauge", labels, g)
        return g

    def counter_probe(
        self, name: str, fn: Callable[[], float],
        labels: dict[str, str] | None = None,
    ) -> None:
        """Register a pull counter: *fn* is read at each collect."""
        self._register(name, "counter", labels, fn)

    def gauge_probe(
        self, name: str, fn: Callable[[], float],
        labels: dict[str, str] | None = None,
    ) -> None:
        """Register a pull gauge: *fn* is read at each collect."""
        self._register(name, "gauge", labels, fn)

    def histogram(
        self, name: str, sketch: QuantileSketch | None = None,
        labels: dict[str, str] | None = None,
    ) -> QuantileSketch:
        """Register a live :class:`QuantileSketch` view and return it.

        The registry keeps a *reference*: values added to the sketch
        after registration show up in later collects, so existing
        accumulators (tenant latency, detection lag) plug in directly.
        """
        if sketch is None:
            sketch = QuantileSketch()
        self._register(name, "histogram", labels, sketch)
        return sketch

    def collector(self, fn: Callable) -> None:
        """Register ``fn(emit)``; it may emit any samples at collect.

        ``emit(name, kind, value, labels=None)`` takes the same kinds
        as the static registrations (histogram values must be
        :class:`QuantileSketch` instances).
        """
        self._collectors.append(fn)

    # -- collection --------------------------------------------------------

    def collect(self) -> list[MetricSample]:
        """Resolve every metric (push, pull, and collector) to samples."""
        out: list[MetricSample] = []
        for full, kind, pairs, resolver in self._metrics.values():
            if kind == "histogram":
                out.append(MetricSample(full, kind, pairs, resolver))
            elif isinstance(resolver, (Counter, Gauge)):
                out.append(MetricSample(full, kind, pairs, resolver.value))
            else:
                out.append(MetricSample(full, kind, pairs, resolver()))

        def emit(name, kind, value, labels=None):
            """Collector callback: append one dynamically-labeled sample."""
            out.append(
                MetricSample(self._full(name), kind, _label_key(labels), value)
            )

        for fn in self._collectors:
            fn(emit)
        return out

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe snapshot keyed by sample identity.

        Histogram entries expand to ``count``/``sum``/``p50``/``p90``/
        ``p99`` so the snapshot round-trips through JSON without the
        backing sketch.
        """
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, float]] = {}
        for s in self.collect():
            if s.kind == "counter":
                counters[s.key] = counters.get(s.key, 0) + s.value
            elif s.kind == "gauge":
                gauges[s.key] = s.value
            else:
                histograms[s.key] = {
                    "count": s.value.count,
                    "sum": s.value.total,
                    **{f"p{q:g}": s.value.percentile(q) for q in _QUANTILES},
                }
        return {
            "counters": counters, "gauges": gauges, "histograms": histograms,
        }

    def to_prometheus(self) -> str:
        """Render the Prometheus text exposition format (version 0.0.4).

        Histograms are rendered as summaries: quantile-labeled sample
        lines plus ``_count`` and ``_sum``.
        """
        by_name: dict[str, tuple[str, list[MetricSample]]] = {}
        for s in self.collect():
            entry = by_name.setdefault(s.name, (s.kind, []))
            entry[1].append(s)
        lines: list[str] = []
        for name in sorted(by_name):
            kind, samples = by_name[name]
            prom_type = "summary" if kind == "histogram" else kind
            lines.append(f"# TYPE {name} {prom_type}")
            for s in sorted(samples, key=lambda s: s.labels):
                if kind == "histogram":
                    for q in _QUANTILES:
                        labels = s.labels + (("quantile", f"{q / 100.0:g}"),)
                        value = s.value.percentile(q)
                        lines.append(
                            f"{name}{render_labels(labels)} {value:g}"
                        )
                    suffix = render_labels(s.labels)
                    lines.append(f"{name}_count{suffix} {s.value.count}")
                    lines.append(f"{name}_sum{suffix} {s.value.total:g}")
                else:
                    lines.append(f"{s.key} {s.value:g}")
        return "\n".join(lines) + "\n"
