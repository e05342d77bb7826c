"""``repro serve`` at its defaults, with the span ledger installed.

    python3 benchmarks/suite/server.py --ledger out/daemon.ledger.json

The daemon workload's traced pass runs this instead of ``repro serve``.
It installs the ledger's wrappers, then runs ``repro.cli.main(["serve",
"--port", "0"])``, so the traced server is the CLI's own, set-up
included.  Beyond the simulator layers, two server-only layers are
wrapped:

* ``service.daemon``: the JSON ``loads``/``dumps`` of the daemon module;
* ``idle``: time blocked in the event loop's ``select``.

Every ``stats`` verb records a mark (ledger snapshot, wall and CPU
clocks, simulator and service counters), so a client can cut the
ledger at its own phase boundaries; its first verb is ``stats``, so the
first mark closes set-up.  When ``main`` returns the server calibrates
the wrappers and writes the marks, the calibration and a Chrome trace
next to ``--ledger``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import types
from pathlib import Path

import common

#: Server-only span targets, added to the ledger's default set.
SERVER_TARGETS = (("selectors", "EpollSelector", ("select",), "idle"),)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ledger", required=True, type=Path)
    args = parser.parse_args(argv)
    common.use_source()

    from ledger import Ledger, Tracing, calibrate

    ledger = Ledger()
    tracing = Tracing(ledger, extra=SERVER_TARGETS).install()

    import repro.cli
    import repro.service.daemon as daemon_module
    from repro.service.core import FabricService

    daemon_module.json = types.SimpleNamespace(
        loads=ledger.wrap("service.daemon/loads", json.loads),
        dumps=ledger.wrap("service.daemon/dumps", json.dumps),
    )
    marks: list[dict] = []
    snapshot = FabricService.snapshot

    def snapshot_and_mark(service: FabricService) -> dict:
        snap = snapshot(service)
        sim = service.sim
        marks.append({
            "wall_ns": time.perf_counter_ns(),
            "cpu_ns": time.process_time_ns(),
            "ledger": ledger.snapshot(),
            "delivered": sim.stats.delivered,
            "events": sim.logical_events,
            "elided": sim.link_events_elided,
            "recoveries": sim.stats.deadlock_recoveries,
            "measured": sim.stats.measured_delivered,
            "total_hops": sim.stats.total_hops,
            "submitted": snap["submitted"],
            "completed": snap["completed"],
            "queued_total": service.queued_total,
            "shed": service.shed_total,
        })
        return snap

    FabricService.snapshot = snapshot_and_mark
    try:
        code = repro.cli.main(["serve", "--port", "0"])
    finally:
        tracing.uninstall()
        FabricService.snapshot = snapshot
        daemon_module.json = json
    trace_path = ledger.write_chrome_trace(args.ledger.with_suffix(".trace.json"))
    args.ledger.write_text(json.dumps({
        "marks": marks,
        "calibration": calibrate(),
        "chrome_trace": str(trace_path),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
