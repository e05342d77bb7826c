"""Rendering sweep results as text tables and JSON files.

Shared by the ``repro sweep`` CLI and the benchmark harness so every
consumer prints the same shapes.  Each kind's columns are declared in
:mod:`repro.experiments.kinds`; unsupported grid points render as ``-``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.experiments.kinds import KINDS, TASK_FIELDS, Column
from repro.experiments.runner import SweepResult
from repro.experiments.spec import ExperimentTask

__all__ = ["render_table", "sweep_table", "write_result_json"]


def render_table(header: list[str], rows: list[list[Any]]) -> str:
    """Right-aligned fixed-width text table."""
    widths = [
        max(len(str(header[i])), max((len(f"{r[i]}") for r in rows), default=0))
        for i in range(len(header))
    ]
    lines = ["  ".join(str(h).rjust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(f"{c}".rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: Any, spec: str = ".2f") -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return format(value, spec)
    return str(value)


def _cell(column: Column, task: ExperimentTask, payload: dict[str, Any]) -> str:
    source = column.source
    if isinstance(source, str) and source in TASK_FIELDS:
        return _fmt(getattr(task, source), column.fmt)
    if payload.get("unsupported"):
        return "-"
    value = source(payload) if callable(source) else payload.get(source)
    return _fmt(value, column.fmt)


def sweep_table(result: SweepResult) -> str:
    """Render a whole sweep, one table section per task kind.

    Payload keys prefixed ``obs_`` (added by instrumented runs — the
    ``repro trace`` CLI and the benchmark harness) become extra columns
    appended after the kind's standard set, so observability fields
    ride along without a per-kind schema change.
    """
    sections: list[str] = []
    for kind in KINDS.values():
        pairs = [(t, p) for t, p in result if t.kind == kind.name]
        if not pairs:
            continue
        extra = sorted(
            {key for _, p in pairs for key in p if key.startswith("obs_")}
        )
        header = [column.header for column in kind.columns]
        header += [key[len("obs_"):] for key in extra]
        rows = [
            [_cell(column, task, payload) for column in kind.columns]
            + [_fmt(payload.get(key)) for key in extra]
            for task, payload in pairs
        ]
        sections.append(render_table(header, rows))
    return "\n\n".join(sections)


def write_result_json(path: str | Path, data: Any) -> Path:
    """Persist figure data as pretty JSON (benchmark bookkeeping)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
    return path
