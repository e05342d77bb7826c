"""Declarative experiment specifications (the sweep grid language).

An :class:`ExperimentSpec` names a *grid* of independent simulation
points — designs x node counts x traffic patterns x injection rates x
seeds for synthetic traffic, or workloads x designs x node counts for
trace-driven replay — plus the fixed simulation parameters every point
shares.  :meth:`ExperimentSpec.tasks` expands the grid into frozen
:class:`ExperimentTask` values, each of which is a pure function of its
fields: the same task always produces the same result payload, which is
what makes parallel execution and on-disk caching sound.

Which axes a kind expands over, how it runs and how it reports are
declared once per kind in :mod:`repro.experiments.kinds`.

Specs round-trip through JSON (:meth:`to_json` / :meth:`from_json` /
:meth:`from_file`) so sweeps can be versioned as files and replayed
from the ``repro sweep`` CLI.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.experiments.kinds import KINDS, TASK_KINDS

__all__ = ["TASK_KINDS", "ExperimentSpec", "ExperimentTask", "freeze_params"]

#: Bump when task semantics change so stale cache entries are ignored.
#: (The ResultCache's source-code fingerprint already invalidates on any
#: repro/ edit; this version is belt-and-braces for semantic changes —
#: v2: percentile() switched from banker's rounding to round-half-up.)
ENGINE_VERSION = 2

_Frozen = tuple[tuple[str, Any], ...]

#: Spec axis -> the task field each of its values becomes, in the
#: expansion's loop-nesting order.
_TASK_FIELD = {
    "workloads": "workload", "designs": "design", "nodes": "nodes",
    "patterns": "pattern", "rates": "rate", "seeds": "seed",
}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return _is_int(value) or isinstance(value, float)


#: Value checks for the numeric axes: a JSON spec with ``"16"`` for a
#: node count would otherwise run, and cache under a different key.
_AXIS_TYPES = {
    "nodes": (_is_int, "ints"),
    "seeds": (_is_int, "ints"),
    "rates": (_is_number, "numbers"),
}


def freeze_params(params: Mapping[str, Any] | _Frozen | None) -> _Frozen:
    """Canonicalize a parameter mapping into a sorted, hashable tuple."""
    if params is None:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    out = []
    for key, value in sorted(items):
        if isinstance(value, (list, tuple)):
            value = tuple(value)
        out.append((str(key), value))
    return tuple(out)


@dataclass(frozen=True)
class ExperimentTask:
    """One independent simulation point of a sweep.

    Every field is hashable and JSON-representable; tasks pickle
    cheaply across process boundaries and hash stably for the result
    cache.  ``seed`` feeds the simulation/measurement RNG while
    ``topology_seed`` feeds topology construction, so grids can vary
    either independently.
    """

    kind: str
    design: str
    nodes: int
    topology_seed: int = 0
    seed: int = 0
    pattern: str | None = None
    rate: float | None = None
    workload: str | None = None
    sim_params: _Frozen = ()
    topology_params: _Frozen = ()

    def __post_init__(self) -> None:
        # Canonicalize alias spellings ("sf", "string-figure") so
        # hand-built tasks share cache/filter identity with spec-built
        # ones.  Unpickling restores state directly and skips this,
        # which is fine: pickled tasks are already canonical.
        from repro.topologies.registry import canonical_name

        object.__setattr__(self, "design", canonical_name(self.design))

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe mapping of every task field."""
        return {
            "kind": self.kind,
            "design": self.design,
            "nodes": self.nodes,
            "topology_seed": self.topology_seed,
            "seed": self.seed,
            "pattern": self.pattern,
            "rate": self.rate,
            "workload": self.workload,
            "sim_params": dict(self.sim_params),
            "topology_params": dict(self.topology_params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentTask":
        """Rebuild a task from :meth:`to_dict` output."""
        return cls(
            kind=data["kind"],
            design=data["design"],
            nodes=int(data["nodes"]),
            topology_seed=int(data.get("topology_seed", 0)),
            seed=int(data.get("seed", 0)),
            pattern=data.get("pattern"),
            rate=data.get("rate"),
            workload=data.get("workload"),
            sim_params=freeze_params(data.get("sim_params")),
            topology_params=freeze_params(data.get("topology_params")),
        )

    def key(self) -> str:
        """Stable content hash of the task (cache key).

        Memoized on the instance — result lookups hash each task many
        times and the fields are frozen, so one computation suffices.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            import hashlib

            blob = json.dumps(
                {"v": ENGINE_VERSION, **self.to_dict()},
                sort_keys=True,
                separators=(",", ":"),
            )
            cached = hashlib.sha256(blob.encode()).hexdigest()[:24]
            object.__setattr__(self, "_key", cached)
        return cached

    def label(self) -> str:
        """Human-readable one-line identity (tables, progress, errors)."""
        bits = [self.kind, self.design, f"N={self.nodes}"]
        if self.workload is not None:
            bits.insert(1, self.workload)
        if self.pattern is not None:
            bits.append(self.pattern)
        if self.rate is not None:
            bits.append(f"rate={self.rate:g}")
        bits.append(f"seed={self.seed}")
        return " ".join(bits)


@dataclass
class ExperimentSpec:
    """A declarative sweep: a task grid plus shared parameters.

    Grid axes that do not apply to a kind are ignored during expansion
    (e.g. ``rates`` for ``saturation``; ``patterns`` for ``workload``),
    so one spec type serves every benchmark family.
    """

    name: str
    kind: str = "synthetic"
    designs: Sequence[str] = ("SF",)
    nodes: Sequence[int] = (64,)
    patterns: Sequence[str] = ("uniform_random",)
    rates: Sequence[float] = (0.2,)
    seeds: Sequence[int] = (0,)
    workloads: Sequence[str] = ()
    topology_seed: int = 0
    sim_params: Mapping[str, Any] = field(default_factory=dict)
    topology_params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown experiment kind {self.kind!r}; "
                f"choose from {TASK_KINDS}"
            )
        for axis in self._axes():
            values = getattr(self, axis)
            if isinstance(values, str):
                raise ValueError(
                    f"spec {self.name!r}: the {axis} axis must be a list, "
                    f"not the string {values!r}"
                )
            if not values:
                raise ValueError(f"spec {self.name!r} has an empty {axis} axis")
            if axis in _AXIS_TYPES:
                valid, expected = _AXIS_TYPES[axis]
                bad = [v for v in values if not valid(v)]
                if bad:
                    raise ValueError(
                        f"spec {self.name!r}: {axis} must be {expected}, "
                        f"got {bad!r}"
                    )
        # Canonicalize design names at declaration time: typos fail
        # here (instead of masquerading as unsupported-scale points),
        # and alias spellings ("sf", "string-figure") collapse to one
        # task/cache identity.
        from repro.topologies.registry import canonical_name

        self.designs = tuple(canonical_name(d) for d in self.designs)

    def _axes(self) -> tuple[str, ...]:
        """The spec fields this kind expands, in loop-nesting order."""
        swept = KINDS[self.kind].axes
        return tuple(
            axis for axis in _TASK_FIELD
            if axis in ("designs", "nodes", "seeds") or axis in swept
        )

    # -- expansion ---------------------------------------------------------

    def tasks(self) -> list[ExperimentTask]:
        """Expand the grid into independent tasks, in deterministic order."""
        base = dict(
            kind=self.kind,
            topology_seed=self.topology_seed,
            sim_params=freeze_params(self.sim_params),
            topology_params=freeze_params(self.topology_params),
        )
        axes = self._axes()
        fields = [_TASK_FIELD[axis] for axis in axes]
        out: list[ExperimentTask] = []
        for point in itertools.product(*(getattr(self, a) for a in axes)):
            values = dict(zip(fields, point))
            if "rate" in values:
                values["rate"] = float(values["rate"])
            out.append(ExperimentTask(**values, **base))
        return out

    def with_overrides(self, **overrides: Any) -> "ExperimentSpec":
        """A copy of this spec with the given fields replaced.

        Mapping fields (``sim_params``/``topology_params``) are merged
        key-by-key rather than replaced, which is what sensitivity
        variants want (same study, one knob turned).
        """
        data = self.to_dict()
        for key, value in overrides.items():
            if key in ("sim_params", "topology_params"):
                merged = dict(data[key])
                merged.update(value)
                data[key] = merged
            else:
                data[key] = value
        return ExperimentSpec.from_dict(data)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe mapping of every spec field (grid axes as lists)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "designs": list(self.designs),
            "nodes": list(self.nodes),
            "patterns": list(self.patterns),
            "rates": list(self.rates),
            "seeds": list(self.seeds),
            "workloads": list(self.workloads),
            "topology_seed": self.topology_seed,
            "sim_params": dict(freeze_params(self.sim_params)),
            "topology_params": dict(freeze_params(self.topology_params)),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output; rejects unknown keys."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        return cls(**data)

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize the spec to JSON (the ``--spec`` file format)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a spec from its JSON serialization."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentSpec":
        """Load a spec from a JSON file (``repro sweep --spec``)."""
        return cls.from_json(Path(path).read_text())

    def spec_hash(self) -> str:
        """Stable content hash of the whole spec."""
        import hashlib

        blob = json.dumps(
            {"v": ENGINE_VERSION, **self.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:24]
