"""Request-log capture and bit-identical replay.

A :class:`~repro.service.core.FabricService` records every external
input it receives — one JSON-safe dict per request submit and per
control verb, each stamped with the simulated cycle it entered at.
Together with the constructor parameters (the *header*) that log is a
complete causal description of a run: :func:`replay` rebuilds an
identical service, :func:`drive` advances the event loop to each
recorded cycle and re-applies the entries in recorded order, and the
resulting :meth:`~repro.service.core.FabricService.digest` matches the
original bit-for-bit.

The file format is JSONL (one object per line) so logs stream, diff,
and `grep` cleanly (``control`` entries: :meth:`repro.ops.Op.to_entry`)::

    {"kind": "header", "version": 1, "config": {...constructor args...}}
    {"kind": "request", "t": 120, "tenant": "c3", "op": "read", ...}
    {"kind": "control", "t": 8000, "verb": "scale_down", "nodes": [17]}
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable

from repro.ops import Op

if TYPE_CHECKING:
    from repro.service.core import FabricService

__all__ = ["RequestLog", "drive", "replay", "LOG_VERSION"]

#: Bumped when the capture format changes incompatibly.
LOG_VERSION = 1


class RequestLog:
    """A captured service run: config header plus ordered input entries."""

    def __init__(
        self, config: dict[str, Any], entries: list[dict[str, Any]]
    ) -> None:
        self.config = config
        self.entries = entries

    @classmethod
    def capture(cls, service: "FabricService") -> "RequestLog":
        """Snapshot *service*'s inputs so far as a replayable log."""
        return cls(service.config_dict(), list(service.log_entries))

    @classmethod
    def load(cls, path: str) -> "RequestLog":
        """Parse a JSONL capture file written by :meth:`save`."""
        config: dict[str, Any] | None = None
        entries: list[dict[str, Any]] = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if record.get("kind") == "header":
                    version = record.get("version")
                    if version != LOG_VERSION:
                        raise ValueError(
                            f"unsupported log version {version!r} "
                            f"(expected {LOG_VERSION})"
                        )
                    config = record["config"]
                else:
                    entries.append(record)
        if config is None:
            raise ValueError(f"{path}: no header line in request log")
        return cls(config, entries)

    def save(self, path: str) -> None:
        """Write the log as JSONL (header first, then entries in order)."""
        with open(path, "w", encoding="utf-8") as handle:
            header = {
                "kind": "header", "version": LOG_VERSION,
                "config": self.config,
            }
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for entry in self.entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")


def drive(
    service: "FabricService", entries: Iterable[dict[str, Any]]
) -> None:
    """Feed ordered log *entries* into *service* at their recorded cycles.

    This is the single ingestion path shared by replay and the in-sim
    synthetic load driver: advance the event loop to each entry's
    cycle, then apply same-cycle entries in order.  Because submits
    happen only between runs, the resulting event interleaving is
    identical however the entries were originally produced (asyncio
    frontier, synthetic schedule, or a prior capture).
    """
    for entry in entries:
        service.advance_to(int(entry["t"]))
        if entry["kind"] == "request":
            service.submit(
                entry["tenant"],
                entry["op"],
                entry["page"],
                offset=entry.get("offset", 0),
                size=entry.get("size"),
                req_id=entry.get("req_id"),
            )
        elif entry["kind"] == "control":
            service.apply(Op.from_entry(entry))
        else:
            raise ValueError(f"unknown log entry kind {entry['kind']!r}")


def replay(
    log: "RequestLog | str", drain: bool = True
) -> "FabricService":
    """Re-run a captured log on a freshly built identical service.

    Returns the replayed service; compare its ``digest()`` against the
    original's to assert bit-identical behaviour.  With ``drain=True``
    (default) outstanding work is run to quiescence at the end unless
    the log itself already ends in a ``drain`` verb.
    """
    from repro.service.core import FabricService

    if isinstance(log, str):
        log = RequestLog.load(log)
    service = FabricService.from_config(log.config)
    drive(service, log.entries)
    ends_drained = bool(
        log.entries
        and log.entries[-1].get("kind") == "control"
        and log.entries[-1].get("verb") == "drain"
    )
    if drain and not ends_drained:
        service.drain()
    return service
