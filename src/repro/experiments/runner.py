"""Parallel sweep execution with caching.

:class:`ParallelRunner` takes a spec (or several specs, or an explicit
task list), serves what it can from the :class:`ResultCache`, and
executes the remaining tasks — across a ``multiprocessing`` pool when
``workers > 1``, in-process otherwise.  Execution is deterministic by
construction: every task carries its own seeds and is a pure function
of its fields, so worker count and scheduling order cannot change any
payload (a regression test pins serial == 4-worker results).

Fallback behavior: if the platform cannot create a process pool (some
sandboxes lack ``sem_open``), the runner silently degrades to serial
execution — same results, one core.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.experiments.cache import ResultCache
from repro.experiments.kinds import task_params
from repro.experiments.spec import ExperimentSpec, ExperimentTask
from repro.experiments.worker import execute_task

__all__ = ["ParallelRunner", "SweepResult"]

#: Keep the per-process construction memos warm after a sweep.  Off, so
#: a long session's memory stays bounded by one sweep's working set;
#: memoization within a sweep — the part that matters — is unaffected,
#: and reuse is exact either way.
KEEP_MEMO = False


@dataclass
class SweepResult:
    """Outcome of one sweep: ordered tasks plus their payloads."""

    tasks: list[ExperimentTask]
    payloads: dict[str, dict[str, Any]]
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_s: float = 0.0
    workers: int = 1

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[tuple[ExperimentTask, dict[str, Any]]]:
        for task in self.tasks:
            yield task, self.payloads[task.key()]

    def payload(self, task: ExperimentTask) -> dict[str, Any]:
        """Result payload recorded for *task*."""
        return self.payloads[task.key()]

    def select(
        self, **filters: Any
    ) -> list[tuple[ExperimentTask, dict[str, Any]]]:
        """All (task, payload) pairs whose task fields match *filters*."""
        return [
            (task, payload)
            for task, payload in self
            if all(getattr(task, k) == v for k, v in filters.items())
        ]

    def get(self, **filters: Any) -> dict[str, Any]:
        """Payload of the unique task matching *filters*."""
        matches = self.select(**filters)
        if len(matches) != 1:
            raise KeyError(
                f"{len(matches)} tasks match {filters!r} (expected 1)"
            )
        return matches[0][1]

    def value(self, metric: str, default: Any = None, **filters: Any) -> Any:
        """One metric of the unique task matching *filters*."""
        return self.get(**filters).get(metric, default)

    def summary(self) -> str:
        """One-line human summary: task count, cache hits, wall time."""
        return (
            f"{len(self.tasks)} tasks: {self.cache_hits} cache hits, "
            f"{self.cache_misses} simulated "
            f"({self.workers} worker{'s' if self.workers != 1 else ''}, "
            f"{self.elapsed_s:.1f}s)"
        )


@dataclass
class ParallelRunner:
    """Execute experiment sweeps with caching and optional parallelism.

    Parameters
    ----------
    workers:
        Process count; ``1`` (default) runs in-process, ``0`` means one
        per CPU.  Results are identical for every value.
    cache:
        Optional :class:`ResultCache`; hits skip simulation entirely.
    """

    workers: int = 1
    cache: ResultCache | None = None
    _pool_broken: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.workers == 0:
            import os

            self.workers = os.cpu_count() or 1
        if self.workers < 1:
            raise ValueError(f"workers must be >= 0, got {self.workers}")

    def run(
        self,
        spec: ExperimentSpec | Sequence[ExperimentSpec] | Sequence[ExperimentTask],
    ) -> SweepResult:
        """Run a spec, a sequence of specs, or an explicit task list."""
        if isinstance(spec, ExperimentSpec):
            tasks = spec.tasks()
        else:
            items = list(spec)
            if items and isinstance(items[0], ExperimentSpec):
                tasks = [t for s in items for t in s.tasks()]
            else:
                tasks = items
        return self.run_tasks(tasks)

    def run_tasks(self, tasks: Sequence[ExperimentTask]) -> SweepResult:
        """Execute *tasks* (deduplicated, cache-aware) and collect results."""
        start = time.perf_counter()
        # Duplicate grid points (e.g. overlapping specs) simulate once.
        ordered: list[ExperimentTask] = []
        seen: set[str] = set()
        for task in tasks:
            if task.key() not in seen:
                # A sim_params key the kind does not read is refused
                # here, before any cache entry is read or written.
                task_params(task)
                seen.add(task.key())
                ordered.append(task)

        payloads: dict[str, dict[str, Any]] = {}
        pending: list[ExperimentTask] = []
        hits = 0
        for task in ordered:
            cached = self.cache.get(task) if self.cache is not None else None
            if cached is not None:
                payloads[task.key()] = cached
                hits += 1
            else:
                pending.append(task)

        try:
            for task, payload in self._execute(pending):
                payloads[task.key()] = payload
                if self.cache is not None:
                    self.cache.put(task, payload)
        finally:
            if pending and not KEEP_MEMO:
                from repro.experiments.memo import clear_memo

                clear_memo()

        return SweepResult(
            tasks=ordered,
            payloads=payloads,
            cache_hits=hits,
            cache_misses=len(pending),
            elapsed_s=time.perf_counter() - start,
            # Report what actually ran, not what was requested.
            workers=1 if self._pool_broken else self.workers,
        )

    # -- execution ---------------------------------------------------------

    def _execute(
        self, pending: list[ExperimentTask]
    ) -> list[tuple[ExperimentTask, dict[str, Any]]]:
        if not pending:
            return []
        if self.workers > 1 and len(pending) > 1 and not self._pool_broken:
            results = self._execute_pool(pending)
            if results is not None:
                return results
        return [(task, execute_task(task)) for task in pending]

    def _execute_pool(
        self, pending: list[ExperimentTask]
    ) -> list[tuple[ExperimentTask, dict[str, Any]]] | None:
        import multiprocessing

        processes = min(self.workers, len(pending))
        try:
            pool = multiprocessing.get_context().Pool(processes)
        except (OSError, ImportError) as exc:
            # No pool on this platform; degrade to serial permanently.
            # Only Pool *creation* is guarded — a task error during
            # execution is a real failure and must propagate, not
            # silently re-run the whole sweep serially.
            import warnings

            warnings.warn(
                f"multiprocessing unavailable ({exc}); running sweeps "
                "on one core",
                RuntimeWarning,
                stacklevel=2,
            )
            self._pool_broken = True
            return None
        with pool:
            # chunksize=1: tasks vary wildly in cost (a 16-node probe
            # vs a 1296-node saturation search), so fine chunks keep
            # the pool balanced.
            computed = pool.map(execute_task, pending, chunksize=1)
        return list(zip(pending, computed))
