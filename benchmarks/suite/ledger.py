"""Per-layer wall-clock ledger built from nested spans.

The benchmark attributes host time to the repository's layers without
touching ``src/``: before a workload builds anything, :class:`Tracing`
replaces public entry points of the ``repro`` classes (``run``,
``forward``, ``service_bulk`` ...) with span wrappers, and wraps every
callback handed to ``NetworkSimulator.schedule``, ``on_delivery`` and
``set_arrival_hook`` at registration, attributing it to the layer of
the callback's module.

Each span records its layer, start, end and parent.  A stack of open
spans gives exact self time: a span's duration minus the durations of
the spans it directly encloses, in integer nanoseconds, so self times
telescope to the root's duration with no rounding.  Aggregates live in
per-key lists; the first ``max_spans`` raw spans are also kept for a
Chrome-trace export.

The wrappers cost time of their own.  :func:`calibrate` measures that
cost per span and per callback registration in a tight loop, and
:func:`attribute` charges it to the spans that paid it, so corrected
self times, wrapper cost and the time outside every span add up to the
measured root exactly.  In a real run a wrapper costs more than in the
loop (cold caches, deeper stacks): :func:`in_situ_scale` sizes the true
cost from the same work run untraced, and :func:`attribute` spreads it
in the same proportions, so the corrected self times add up to the
untraced run instead.  :func:`trace_metrics` reports how far that
estimate can be trusted.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

__all__ = [
    "CALLBACK_MODULE_LAYERS",
    "ELASTIC_GROUP",
    "SPAN_TARGETS",
    "Ledger",
    "SHARE_LAYERS",
    "Tracing",
    "attribute",
    "calibrate",
    "common_layers",
    "delta",
    "in_situ_scale",
    "layer_of_key",
    "layer_of_module",
    "layer_shares",
    "trace_metrics",
]

#: Class-level span targets: (module, class, methods, layer).  Each key
#: of the ledger is ``layer/method``; reports group keys by layer.
SPAN_TARGETS: tuple[tuple[str, str, tuple[str, ...], str], ...] = (
    ("repro.core.topology", "StringFigureTopology", ("__init__",),
     "topologies"),
    ("repro.core.routing", "GreediestRouting",
     ("__init__", "rebuild", "refresh_views"), "core.routing"),
    ("repro.network.simulator", "NetworkSimulator", ("__init__",),
     "network.simulator.init"),
    ("repro.network.simulator", "NetworkSimulator", ("run",),
     "network.simulator"),
    ("repro.network.policies", "GreedyPolicy", ("forward", "select_vc"),
     "network.policies"),
    ("repro.network.policies", "MinimalPolicy", ("forward", "select_vc"),
     "network.policies"),
    ("repro.memory.node", "MemoryNode", ("service", "service_bulk"),
     "memory"),
    ("repro.memory.migration", "PageDirectory",
     ("resolve", "arrival_ruling"), "memory"),
    ("repro.memory.migration", "MigrationEngine",
     ("migrate_out", "migrate_in"), "memory.migration"),
    ("repro.network.elastic", "LiveReconfigurator", ("gate_off", "gate_on"),
     "network.elastic"),
    ("repro.core.reconfig", "ReconfigurationManager",
     ("power_gate", "power_on", "unmount", "mount", "gate_candidates"),
     "core.reconfig"),
    ("repro.obs.probes", "FabricProbes",
     ("on_event", "on_inject", "on_arrive", "on_enqueue", "on_send",
      "on_deliver", "on_drop", "on_credit_stall", "on_queue_join",
      "on_dequeue", "on_qos_dequeue"), "obs"),
    # With an anatomy installed the probes bind its queue hooks as
    # instance attributes, bypassing the FabricProbes methods above.
    ("repro.obs.anatomy", "LatencyAnatomy",
     ("queue_join", "dequeue", "qos_dequeue"), "obs"),
    ("repro.service.core", "FabricService", ("__init__",),
     "service.core.init"),
    ("repro.service.core", "FabricService", ("submit", "advance", "drain"),
     "service.core"),
)

#: Callback attribution by module prefix (first match wins); other
#: ``repro`` modules map to their dotted name without the package.
CALLBACK_MODULE_LAYERS: tuple[tuple[str, str], ...] = (
    ("repro.traffic", "traffic"),
    ("repro.workloads.interference", "traffic"),
    ("repro.workloads.migration", "workloads.migration"),
    ("repro.memory.migration", "memory.migration"),
    ("repro.memory", "memory"),
    ("repro.network.elastic", "network.elastic"),
    ("repro.core.reconfig", "core.reconfig"),
    ("repro.service.core", "service.core"),
    ("repro.faults", "faults"),
    ("repro.obs", "obs"),
)


def layer_of_module(module: str | None) -> str:
    """The layer a callback defined in *module* is attributed to."""
    if not module:
        return "unknown"
    for prefix, layer in CALLBACK_MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    if module.startswith("repro."):
        return module[len("repro."):]
    return module


def layer_of_key(key: str) -> str:
    """``"network.policies/forward"`` -> ``"network.policies"``."""
    return key.split("/", 1)[0]


class Ledger:
    """Span stacks plus per-key aggregates (integer nanoseconds).

    Per key: ``calls``, ``self_ns`` (exact), ``incl_ns`` (outermost
    activations only, so recursion is not double counted),
    ``child_spans`` (spans opened while this key was on top of the
    stack) and ``registrations`` (callbacks wrapped while this key was
    on top).  The last two locate the wrappers' own cost: it is paid
    inside the enclosing span.  ``top`` holds the summed duration,
    span count and registrations of work done with an empty stack.
    """

    def __init__(
        self,
        max_spans: int = 200_000,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.clock = clock
        self.max_spans = max_spans
        self.keys: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.incl_ns: list[int] = []
        self.child_spans: list[int] = []
        self.registrations: list[int] = []
        self._depth: list[int] = []
        #: Open spans, innermost last: [child_ns, span_id, key].
        self.stack: list[list[int]] = []
        #: [duration_ns, spans, registrations] with an empty stack.
        self.top = [0, 0, 0]
        #: Raw spans: (key, start_ns, end_ns, span_id, parent_id or -1).
        self.spans: list[tuple[int, int, int, int, int]] = []
        self._ids = itertools.count()
        #: (code object, suffix) -> span taking the callback first.
        self._callback_spans: dict[Any, Callable] = {}

    def key(self, name: str) -> int:
        """Index of key *name* (created on first use)."""
        idx = self._index.get(name)
        if idx is None:
            idx = len(self.keys)
            self._index[name] = idx
            self.keys.append(name)
            for column in (self.calls, self.self_ns, self.incl_ns,
                           self.child_spans, self.registrations, self._depth):
                column.append(0)
        return idx

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped so every call records one span under key *name*."""
        return functools.wraps(fn)(self._span(self.key(name), fn))

    def _span(self, idx: int, fn: Callable) -> Callable:
        """The span wrapper: the hot path, one per wrapped call."""
        stack = self.stack
        clock = self.clock
        calls = self.calls
        self_ns = self.self_ns
        incl_ns = self.incl_ns
        depth = self._depth
        child_spans = self.child_spans
        top = self.top
        spans = self.spans
        cap = self.max_spans
        ids = self._ids

        def span(*args, **kwargs):
            frame = [0, next(ids), idx]
            stack.append(frame)
            depth[idx] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_ns[idx] += dur - frame[0]
                calls[idx] += 1
                d = depth[idx] - 1
                depth[idx] = d
                if not d:
                    incl_ns[idx] += dur
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    child_spans[parent[2]] += 1
                    parent_id = parent[1]
                else:
                    top[0] += dur
                    top[1] += 1
                    parent_id = -1
                if len(spans) < cap:
                    spans.append((idx, start, end, frame[1], parent_id))

        return span

    def wrap_callback(self, callback: Callable | None, suffix: str = "") -> Callable | None:
        """Wrap a callback at registration, keyed by its module's layer.

        The key is ``<layer><suffix>/<qualified name>``.  One span per
        code object takes the callback as its first argument, so a
        registration costs one dict hit and one ``partial``.
        """
        if callback is None:
            return None
        if self.stack:
            self.registrations[self.stack[-1][2]] += 1
        else:
            self.top[2] += 1
        fn = getattr(callback, "__func__", callback)
        code = getattr(fn, "__code__", None)
        cache_key = (code if code is not None else type(callback), suffix)
        span = self._callback_spans.get(cache_key)
        if span is None:
            module = getattr(fn, "__module__", None)
            if module is None:  # functools.partial and friends
                module = getattr(getattr(fn, "func", None), "__module__", None)
            qualname = (
                getattr(code, "co_qualname", code.co_name)
                if code is not None else type(callback).__name__
            )
            idx = self.key(f"{layer_of_module(module)}{suffix}/{qualname}")
            span = self._span(idx, _call)
            self._callback_spans[cache_key] = span
        return functools.partial(span, callback)

    def snapshot(self) -> dict[str, Any]:
        """Copy of every aggregate (cheap; used as a mark between phases)."""
        return {
            "keys": list(self.keys),
            "calls": list(self.calls),
            "self_ns": list(self.self_ns),
            "incl_ns": list(self.incl_ns),
            "child_spans": list(self.child_spans),
            "registrations": list(self.registrations),
            "top_ns": self.top[0],
            "top_spans": self.top[1],
            "top_registrations": self.top[2],
            "recorded": len(self.spans),
        }

    def chrome_trace(self) -> dict[str, Any]:
        """The recorded raw spans as a Chrome ``trace_event`` document."""
        spans = self.spans
        if not spans:
            return {"traceEvents": []}
        origin = min(span[1] for span in spans)
        events = [
            {
                "name": self.keys[idx], "cat": layer_of_key(self.keys[idx]),
                "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "args": {"id": span_id, "parent": parent_id},
            }
            for idx, start, end, span_id, parent_id in spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Write :meth:`chrome_trace` to *path* (open it in Perfetto)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()))
        return path


def _call(fn: Callable, *args, **kwargs):
    """Trampoline a callback span runs: the callback is its first argument."""
    return fn(*args, **kwargs)


def delta(after: dict[str, Any], before: dict[str, Any]) -> dict[str, Any]:
    """Aggregates accumulated between two :meth:`Ledger.snapshot` marks."""
    out = {"keys": after["keys"]}
    for column in ("calls", "self_ns", "incl_ns", "child_spans", "registrations"):
        old = before[column]
        out[column] = [
            value - (old[i] if i < len(old) else 0)
            for i, value in enumerate(after[column])
        ]
    for field in ("top_ns", "top_spans", "top_registrations", "recorded"):
        out[field] = after[field] - before[field]
    return out


def attribute(
    region: dict[str, Any],
    calib: dict[str, float],
    root_ns: float | None = None,
    scale: float = 1.0,
) -> dict[str, Any]:
    """Wrapper-corrected self time per key and per layer for one region.

    *region* is a :func:`delta` of two snapshots.  The wrappers' cost,
    from :func:`calibrate` times *scale* (see :func:`in_situ_scale`), is
    charged where it was paid: the part of a span's cost between its
    two clock reads to the span's own key, the rest to the key that was
    on top of the stack when it opened, a registration's cost likewise;
    what spans and registrations with an empty stack pay outside their
    clock reads is time outside every span (``outside_ns``).  Then the
    layers' self times plus ``wrapper_ns``
    plus ``unattributed_ns`` (given the region's measured duration
    *root_ns*: the time outside every span, net of wrapper cost) add up
    to *root_ns*.  Returns ``keys`` (key -> calls/self_ns/incl_ns),
    ``layers`` (layer -> self_ns/calls), ``spans``, ``span_ns`` (mean
    cost per span used) and ``span_inside_ns`` (its part inside the
    span), ``scale``, ``wrapper_ns``, ``negative_ns``
    (the summed self time of keys corrected below zero: a sign that
    *scale* overcharges them), ``outside_ns`` and ``unattributed_ns``.
    """
    calls = sum(region["calls"])
    recorded = min(region["recorded"], calls)
    span_cost = scale * (recorded * calib["span_ns"]
                         + (calls - recorded) * calib["span_unrecorded_ns"])
    per_span = span_cost / calls if calls else 0.0
    inside = scale * calib["span_inside_ns"]
    per_child = per_span - inside
    per_reg = scale * calib["registration_ns"]
    registrations = sum(region["registrations"]) + region["top_registrations"]
    keys: dict[str, dict[str, float]] = {}
    layers: dict[str, dict[str, float]] = {}
    for i, key in enumerate(region["keys"]):
        if not region["calls"][i]:
            continue
        own = (region["self_ns"][i] - region["calls"][i] * inside
               - region["child_spans"][i] * per_child
               - region["registrations"][i] * per_reg)
        keys[key] = {
            "calls": region["calls"][i],
            "self_ns": own,
            "incl_ns": region["incl_ns"][i],
        }
        layer = layers.setdefault(layer_of_key(key), {"self_ns": 0.0, "calls": 0})
        layer["self_ns"] += own
        layer["calls"] += region["calls"][i]
    outside = (region["top_spans"] * per_child
               + region["top_registrations"] * per_reg)
    return {
        "keys": keys,
        "layers": layers,
        "spans": calls,
        "span_ns": per_span,
        "span_inside_ns": inside,
        "scale": scale,
        "wrapper_ns": span_cost + registrations * per_reg,
        "negative_ns": sum(max(0.0, -row["self_ns"]) for row in keys.values()),
        "outside_ns": outside,
        "unattributed_ns": (
            None if root_ns is None else root_ns - region["top_ns"] - outside
        ),
    }


def in_situ_scale(region: dict[str, Any], calib: dict[str, float],
                  overhead_ns: float) -> float:
    """In-run wrapper cost over calibrated cost for *region*.

    *overhead_ns* is what tracing added to the region: the traced
    measurement less the same work measured untraced.  Passing the
    result to :func:`attribute` as ``scale`` spreads that whole overhead
    over the keys in proportion to the spans and registrations each
    one paid for, instead of leaving the part calibration misses in
    the callers' self times.
    """
    calibrated = attribute(region, calib)["wrapper_ns"]
    return overhead_ns / calibrated if calibrated else 1.0


#: Layers whose share every workload reports; a share of 0 means no
#: span of that layer ran.  Other layers get a share when they run.
SHARE_LAYERS = ("network.simulator", "network.policies", "traffic", "obs",
                "memory", "memory.migration", "workloads.migration",
                "service.core")

#: Layers whose self time counts toward ``network.elastic.share``:
#: the reconfiguration pipeline, its per-hop arrival hook, the offline
#: manager and, during a run, the routing-table rebuilds it triggers.
ELASTIC_GROUP = ("network.elastic", "network.elastic.hook", "core.reconfig",
                 "core.routing")


def _self_ns(region: dict[str, Any], *layers: str) -> float:
    return sum(region["layers"].get(layer, {}).get("self_ns", 0.0) for layer in layers)


def layer_shares(region: dict[str, Any], work_ns: float) -> dict[str, float]:
    """``<layer>.share`` for :data:`SHARE_LAYERS` and every layer of
    *region*: its wrapper-corrected self time over *work_ns* (the root
    less the wrapper cost)."""
    layers = sorted(set(SHARE_LAYERS) | set(region["layers"]))
    out = {f"{layer}.share": _self_ns(region, layer) / work_ns for layer in layers}
    out["network.elastic.share"] = _self_ns(region, *ELASTIC_GROUP) / work_ns
    return out


def common_layers(
    region: dict[str, Any],
    setup: dict[str, Any],
    counters: dict[str, int],
    work_ns: float,
) -> dict[str, float]:
    """The per-layer metrics every workload computes the same way.

    *region* and *setup* are :func:`attribute` results for the measured
    phase and for set-up; *counters* holds the simulator's counts over
    the measured phase (``delivered``, ``events``, ``elided``,
    ``recoveries``, ``measured``, ``total_hops``); *work_ns* is the
    phase's time less the wrapper cost.  Per-call times of a layer that
    made no calls are left out rather than reported as 0.
    """
    pkts = counters["delivered"]
    events = counters["events"]
    keys = region["keys"]
    layers = region["layers"]
    forward = keys.get("network.policies/forward", {"self_ns": 0.0, "calls": 0})
    out = {
        "topologies.build_s": _self_ns(setup, "topologies") / 1e9,
        "core.routing.build_s": _self_ns(setup, "core.routing") / 1e9,
        "network.simulator.init_s": _self_ns(setup, "network.simulator.init") / 1e9,
        "network.simulator.self_us_per_pkt":
            _self_ns(region, "network.simulator") / pkts / 1e3,
        "network.simulator.events_per_pkt": events / pkts,
        "network.simulator.elided_frac": counters["elided"] / events,
        "network.simulator.events_per_s": events / (work_ns / 1e9),
        "network.simulator.deadlock_recoveries_per_kpkt":
            counters["recoveries"] / pkts * 1e3,
        "network.policies.forward_calls_per_pkt": forward["calls"] / pkts,
        "traffic.self_us_per_pkt": _self_ns(region, "traffic") / pkts / 1e3,
        "obs.hook_calls_per_pkt": layers.get("obs", {}).get("calls", 0) / pkts,
        "obs.self_us_per_pkt": _self_ns(region, "obs") / pkts / 1e3,
    }
    if counters["measured"]:  # only packets flagged as measured count hops
        out["network.simulator.hops_per_pkt"] = (
            counters["total_hops"] / counters["measured"]
        )
    if forward["calls"]:
        out["network.policies.forward_self_us"] = (
            forward["self_ns"] / forward["calls"] / 1e3
        )
    memory = layers.get("memory", {"self_ns": 0.0, "calls": 0})
    if memory["calls"]:
        out["memory.self_us_per_call"] = memory["self_ns"] / memory["calls"] / 1e3
    out.update(layer_shares(region, work_ns))
    return out


#: A ledger's shares are claimable only when the mean of the untraced
#: references is uncertain by at most this share ...
CLAIM_NOISE_FRAC = 0.05
#: ... and keys corrected below zero sum to less than this share of
#: the work.
CLAIM_NEGATIVE_FRAC = 0.01


def trace_metrics(
    region: dict[str, Any],
    calibrated_wrapper_ns: float,
    overhead_ns: float,
    references_ns: tuple[float, float],
    work_ns: float,
) -> tuple[dict[str, float], list[str]]:
    """``bench.trace.*`` metrics of one ledger, and why its shares are
    not claimable (empty when they are).

    *region* is attributed at the in-situ scale; *overhead_ns* is what
    tracing added to it; *references_ns* are the same work's two
    untraced measurements, taken before and after the traced one, in
    the units of *overhead_ns*.  If the host's speed moved one way over
    the three runs, the untraced time of the traced run lies between
    the two, so their mean is off by at most half their difference:
    ``noise_frac`` is that bound as a share of the mean.  An error of
    that share of the run lands in the corrected self times.
    """
    reference_ns = statistics.fmean(references_ns)
    noise = abs(references_ns[0] - references_ns[1]) / 2 / reference_ns
    negative = region["negative_ns"] / work_ns if work_ns > 0 else float("inf")
    metrics = {
        "bench.trace.overhead_frac": overhead_ns / reference_ns,
        "bench.trace.wrapper_s": region["wrapper_ns"] / 1e9,
        "bench.trace.unexplained_frac":
            (overhead_ns - calibrated_wrapper_ns) / reference_ns,
        "bench.trace.noise_frac": noise,
        "bench.trace.negative_frac": negative,
        "bench.trace.scale": region["scale"],
        "bench.trace.spans": float(region["spans"]),
    }
    reasons = []
    if noise > CLAIM_NOISE_FRAC:
        reasons.append(f"untraced references uncertain by {noise:.1%} "
                       f"(> {CLAIM_NOISE_FRAC:.0%})")
    if negative > CLAIM_NEGATIVE_FRAC:
        reasons.append(f"keys corrected below zero sum to {negative:.1%} of "
                       f"the work (> {CLAIM_NEGATIVE_FRAC:.0%})")
    return metrics, reasons


class Tracing:
    """Install span wrappers on :data:`SPAN_TARGETS` and the simulator's
    callback registration points; :meth:`uninstall` restores them.

    Use as a context manager, installed before the workload builds
    its objects: wrappers live on the classes, so existing instances see
    them too, but callbacks registered (and anatomy hooks bound) before
    installation stay unwrapped.
    """

    def __init__(self, ledger: Ledger, extra: tuple = ()) -> None:
        self.ledger = ledger
        self.targets = SPAN_TARGETS + tuple(extra)
        self._saved: list[tuple[type, str, Any]] = []

    def _patch(self, cls: type, name: str, replacement: Any) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def install(self) -> "Tracing":
        if self._saved:
            raise RuntimeError("tracing already installed")
        ledger = self.ledger
        for module, cls_name, methods, layer in self.targets:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                if method in cls.__dict__:
                    self._patch(
                        cls, method,
                        ledger.wrap(f"{layer}/{method}", cls.__dict__[method]),
                    )
        from repro.network.simulator import NetworkSimulator

        schedule = NetworkSimulator.__dict__["schedule"]
        on_delivery = NetworkSimulator.__dict__["on_delivery"]
        set_hook = NetworkSimulator.__dict__["set_arrival_hook"]
        wrap_callback = ledger.wrap_callback

        @functools.wraps(schedule)
        def traced_schedule(sim, when, callback):
            return schedule(sim, when, wrap_callback(callback))

        @functools.wraps(on_delivery)
        def traced_on_delivery(sim, callback):
            return on_delivery(sim, wrap_callback(callback))

        @functools.wraps(set_hook)
        def traced_set_arrival_hook(sim, hook):
            # The arrival hook runs on every hop while installed; keep
            # it apart from the reconfiguration work of its module.
            return set_hook(sim, wrap_callback(hook, ".hook"))

        self._patch(NetworkSimulator, "schedule", traced_schedule)
        self._patch(NetworkSimulator, "on_delivery", traced_on_delivery)
        self._patch(NetworkSimulator, "set_arrival_hook", traced_set_arrival_hook)
        return self

    def uninstall(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    def __enter__(self) -> "Tracing":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _time_loop(fn: Callable, n: int) -> int:
    clock = time.perf_counter_ns
    start = clock()
    for _ in range(n):
        fn()
    return clock() - start


def _empty_loop(n: int) -> int:
    clock = time.perf_counter_ns
    start = clock()
    for _ in range(n):
        pass
    return clock() - start


def calibrate(n: int = 50_000, trials: int = 7) -> dict[str, float]:
    """Wrapper cost on the host running it, in nanoseconds.

    ``span_ns``: one wrapped call minus one bare call, with the raw span
    recorded; ``span_unrecorded_ns``: the same once the raw-span buffer
    is full; ``span_inside_ns``: the part of it between the span's own
    clock reads (its recorded self time less the bare call), which its
    own key measures; ``registration_ns``: one call through a traced
    registration point (extra frame plus :meth:`Ledger.wrap_callback`)
    minus the bare registration.  Each is the median over *trials* of
    back-to-back loops, run inside an open span as in a real run.
    """

    def noop() -> None:
        return None

    def register(sim, when, callback) -> None:
        return None

    def costs(max_spans: int) -> tuple[float, float, float]:
        ledger = Ledger(max_spans=max_spans)
        wrapped = ledger.wrap("calibrate/noop", noop)
        noop_key = ledger.key("calibrate/noop")
        wrap_callback = ledger.wrap_callback

        def traced_register(sim, when, callback):
            return register(sim, when, wrap_callback(callback))

        def bare_reg():
            register(None, 0, noop)

        def traced_reg():
            traced_register(None, 0, noop)

        span_samples: list[float] = []
        inside_samples: list[float] = []
        reg_samples: list[float] = []

        def trial() -> None:
            del ledger.spans[:]  # keep the buffer below its cap
            bare = _time_loop(noop, n)
            measured = ledger.self_ns[noop_key]
            span_samples.append((_time_loop(wrapped, n) - bare) / n)
            inside_samples.append(
                (ledger.self_ns[noop_key] - measured - (bare - _empty_loop(n))) / n
            )
            reg_samples.append(
                (_time_loop(traced_reg, n) - _time_loop(bare_reg, n)) / n
            )

        in_span = ledger.wrap("calibrate/outer", trial)
        for _ in range(trials):
            in_span()
        return (statistics.median(span_samples), statistics.median(inside_samples),
                statistics.median(reg_samples))

    span_ns, span_inside_ns, registration_ns = costs(max_spans=n + 1)
    span_unrecorded_ns, _, _ = costs(max_spans=0)
    return {
        "span_ns": span_ns,
        "span_unrecorded_ns": span_unrecorded_ns,
        "span_inside_ns": span_inside_ns,
        "registration_ns": registration_ns,
    }
