"""The ``daemon`` workload: ``repro serve`` under one asyncio load generator.

The server runs at its ``repro serve`` defaults (SF N=144, 512 pages)
as a child process; this process drives it over two TCP connections
with 64-byte requests, 70% reads and 30% writes, over the 512 pages:

* phase A, open loop: Poisson arrivals at 3,000 req/s in total; each
  request is timed from when it was due, so a stalled server charges
  the wait to every request queued behind the stall;
* phase B, closed loop: a window of 16 requests per connection.

Each phase lasts half of ``--seconds``.  Then a ``drain`` verb must
report every conservation law intact, and every request must have been
answered exactly once.  Load comes from one process with two
connections, so client and server fit on a two-core host;
``bench.client.cpu_busy_frac`` says whether the client kept up.

With tracing, the same phases run three times: against ``repro serve``
(an untraced reference), against ``server.py``, which runs the same
CLI with the span ledger installed, and against ``repro serve`` again.
The traced server records a mark at every ``stats`` verb, so the
client can cut the ledger at its phase boundaries.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import common
import hostref

CONNECTIONS = 2
PAGES = 512
PAGE_BYTES = 4096
SIZE = 64
READ_FRACTION = 0.7
OPEN_RATE = 3000.0
WINDOW = 16
#: Seconds to wait for a listening line, a reply, or an exit.
TIMEOUT = 60.0

_LISTENING = re.compile(rb"resident on ([0-9.]+):(\d+)")
_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


class Server:
    """One daemon child process, pinned to *core* unless it is None;
    its set-up is the wall-clock interval ``[started, listening]`` from
    spawn to the listening line."""

    def __init__(self, command: list[str], core: int | None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(common.SRC), env.get("PYTHONPATH")) if p
        )
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=common.ROOT, env=env, stdout=subprocess.PIPE,
            preexec_fn=common.child_setup(core),
        )
        try:
            self.host, self.port = self._await_listening()
        except BaseException:
            self.stop()
            raise
        self.listening = time.perf_counter()

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + TIMEOUT
        out = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([out], [], [], deadline - time.monotonic())
            if not ready:
                break
            line = out.readline()
            if not line:
                raise RuntimeError(f"daemon exited with {self.proc.wait()} before listening")
            match = _LISTENING.search(line)
            if match:
                return match.group(1).decode(), int(match.group(2))
        raise RuntimeError("daemon did not start listening in time")

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server so far (10 ms ticks)."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK

    def peak_rss_mb(self) -> float:
        """The server's VmHWM in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def wait(self) -> int:
        """Wait for the process to exit on its own (after ``shutdown``)."""
        try:
            return self.proc.wait(timeout=TIMEOUT)
        finally:
            self.stop()

    def stop(self) -> None:
        """Terminate (then kill) the process if it still runs; reap it."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def serve_command(ledger_path: Path | None = None) -> list[str]:
    """``repro serve`` at its defaults, or the traced twin in ``server.py``."""
    if ledger_path is None:
        return [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"]
    return [sys.executable, "-u", str(common.SUITE / "server.py"),
            "--ledger", str(ledger_path)]


class Connection:
    """One client connection: request ids -> timing, replies routed back."""

    def __init__(self, reader, writer, rng: random.Random) -> None:
        self.reader = reader
        self.writer = writer
        self.rng = rng
        self.next_id = 0
        #: request id -> (due time, send time, phase)
        self.pending: dict[int, tuple[float, float, str]] = {}
        self.latencies: dict[str, list[float]] = {"open": [], "closed": []}
        self.late: list[float] = []
        self.sent = 0
        self.ok = 0
        self.not_ok: dict[str, int] = {}
        self.unexpected = 0
        self.controls: dict[str, asyncio.Future] = {}
        #: Closed loop: keep the window full until this deadline.
        self.refill_until = 0.0

    def request(self, phase: str, due: float) -> None:
        rid = self.next_id
        self.next_id += 1
        rng = self.rng
        op = "read" if rng.random() < READ_FRACTION else "write"
        page = rng.randrange(PAGES)
        offset = rng.randrange(PAGE_BYTES // SIZE) * SIZE
        now = time.perf_counter()
        self.pending[rid] = (due, now, phase)
        self.sent += 1
        if phase == "open":
            self.late.append(now - due)
        self.writer.write(
            f'{{"op":"{op}","page":{page},"offset":{offset},'
            f'"size":{SIZE},"id":{rid}}}\n'.encode()
        )

    async def control(self, verb: str) -> dict[str, Any]:
        """Send a control or stats verb and wait for its reply."""
        tag = f"{verb}-{self.next_id}"
        self.next_id += 1
        future = asyncio.get_running_loop().create_future()
        self.controls[tag] = future
        self.writer.write(json.dumps({"op": verb, "id": tag}).encode() + b"\n")
        return await asyncio.wait_for(future, TIMEOUT)

    def on_reply(self, reply: dict[str, Any]) -> None:
        now = time.perf_counter()
        rid = reply.get("id")
        if isinstance(rid, str):
            future = self.controls.pop(rid, None)
            if future is not None and not future.done():
                future.set_result(reply)
            else:
                self.unexpected += 1
            return
        entry = self.pending.pop(rid, None)
        if entry is None:
            self.unexpected += 1  # unknown id or a second answer
            return
        due, sent, phase = entry
        if reply.get("ok"):
            self.ok += 1
            self.latencies[phase].append(now - (due if phase == "open" else sent))
        else:
            status = str(reply.get("status") or reply.get("error"))
            self.not_ok[status] = self.not_ok.get(status, 0) + 1
        if phase == "closed" and now < self.refill_until:
            self.request("closed", now)

    async def read_replies(self) -> None:
        reader = self.reader
        while True:
            line = await reader.readline()
            if not line:
                return
            self.on_reply(json.loads(line))

    async def settle(self) -> None:
        """Wait until every request sent so far has been answered."""
        deadline = time.perf_counter() + TIMEOUT
        while self.pending and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)


async def _open_loop(conns: list[Connection], rng: random.Random, seconds: float) -> float:
    """Poisson arrivals at OPEN_RATE, alternating connections."""
    start = time.perf_counter()
    due_rel = 0.0
    i = 0
    while True:
        due_rel += rng.expovariate(OPEN_RATE)
        if due_rel >= seconds:
            break
        due = start + due_rel
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        elif i % 64 == 0:
            await asyncio.sleep(0)  # behind schedule: still let replies in
        conns[i % len(conns)].request("open", due)
        i += 1
    for conn in conns:
        await conn.settle()
    return time.perf_counter() - start


async def _closed_loop(conns: list[Connection], seconds: float) -> float:
    """WINDOW requests outstanding per connection until *seconds* pass."""
    start = time.perf_counter()
    for conn in conns:
        conn.refill_until = start + seconds
        for _ in range(WINDOW):
            conn.request("closed", start)
    await asyncio.sleep(seconds)
    for conn in conns:
        await conn.settle()
    return time.perf_counter() - start


async def drive(server: Server, seed: int, seconds: float) -> dict[str, Any]:
    """Both phases, then drain and shutdown; returns raw measurements."""
    conns = []
    for i in range(CONNECTIONS):
        reader, writer = await asyncio.open_connection(server.host, server.port)
        conns.append(Connection(reader, writer, random.Random(seed * 1000 + i)))
    readers = [asyncio.create_task(c.read_replies()) for c in conns]
    main = conns[0]
    phase_s = seconds / 2.0
    try:
        stats0 = await main.control("stats")
        open_s = await _open_loop(conns, random.Random(seed * 1000 + 999), phase_s)
        # The server logs every request it serves, so its memory grows
        # with throughput; the peak after the fixed-rate phase measures
        # set-up plus a fixed amount of work.
        peak_rss = server.peak_rss_mb()
        stats1 = await main.control("stats")
        cpu0, client0 = server.cpu_s(), time.process_time()
        closed_t0 = time.perf_counter()
        closed_s = await _closed_loop(conns, phase_s)
        cpu1, client1 = server.cpu_s(), time.process_time()
        stats2 = await main.control("stats")
        drain = await main.control("drain")
        final = await main.control("stats")
        await main.control("shutdown")
    finally:
        for conn in conns:
            conn.writer.close()
        await asyncio.gather(*readers, return_exceptions=True)
    unanswered = sum(len(c.pending) for c in conns)
    return {
        "open_s": open_s,
        "closed_s": closed_s,
        "closed_interval": (closed_t0, closed_t0 + closed_s),
        "open_lat": [x for c in conns for x in c.latencies["open"]],
        "closed_lat": [x for c in conns for x in c.latencies["closed"]],
        "late": [x for c in conns for x in c.late],
        "sent": sum(c.sent for c in conns),
        "ok": sum(c.ok for c in conns),
        "not_ok": {k: sum(c.not_ok.get(k, 0) for c in conns)
                   for k in {k for c in conns for k in c.not_ok}},
        "unexpected": sum(c.unexpected for c in conns),
        "unanswered": unanswered,
        "server_cpu_closed_s": cpu1 - cpu0,
        "client_cpu_closed_s": client1 - client0,
        "stats": [stats0, stats1, stats2, final],
        "drain": {k: v for k, v in drain.items() if k != "latency"},
        "peak_rss_mb": peak_rss,
    }


def _checks(raw: dict[str, Any]) -> dict[str, bool]:
    final = raw["stats"][-1]
    return {
        "answered_exactly_once": raw["unanswered"] == 0 and raw["unexpected"] == 0,
        "server_saw_every_request": final["submitted"] == raw["sent"],
        "drain_all_conserved": bool(raw["drain"].get("all_conserved")),
    }


def _one_pass(seed: int, seconds: float, core: int | None = None,
              ledger_path: Path | None = None) -> dict[str, Any]:
    """Start a server (on *core*, if given), drive both phases, wait
    for it to exit."""
    server = Server(serve_command(ledger_path), core)
    try:
        raw = asyncio.run(drive(server, seed, seconds))
        code = server.wait()
    finally:
        server.stop()
    if code != 0:
        raise RuntimeError(f"daemon exited with status {code}")
    raw["setup"] = (server.started, server.listening)
    return raw


def _ms(values: list[float], q: float) -> float:
    """Nearest-rank percentile *q* of *values* (seconds), in ms."""
    from repro.network.stats import percentile

    return percentile(values, q) * 1e3


def end_to_end(raw: dict[str, Any], setups: list[tuple[float, float]],
               ref: hostref.Reference) -> dict[str, Any]:
    """The daemon's end-to-end metrics from one untraced pass.

    *setups* are server spawn-to-listening intervals.  The gated
    timings are at the nominal host speed of the server's core: set-up
    wall time, and server CPU per packet in the closed loop.
    """
    delivered = raw["stats"][2]["delivered"] - raw["stats"][1]["delivered"]
    closed, opened = raw["closed_lat"], raw["open_lat"]
    failed = raw["sent"] - raw["ok"]
    p99 = _ms(closed, 99)
    closed_factor = ref.factor(*raw["closed_interval"])
    return {
        "metrics": {
            "setup_s": statistics.median((t1 - t0) * ref.factor(t0, t1) for t0, t1 in setups),
            "us_per_pkt": raw["server_cpu_closed_s"] * closed_factor / delivered * 1e6,
            "peak_rss_mb": raw["peak_rss_mb"],
            "failed_frac": failed / raw["sent"],
            "req_per_s": len(closed) / raw["closed_s"],
            "p50_ms": _ms(closed, 50),
            "p99_ms": p99,
            "open_p50_ms": _ms(opened, 50),
            "open_p90_ms": _ms(opened, 90),
            # Printed, not gated: they do not repeat within a tenth.
            "open_p99_ms": _ms(opened, 99),
            "open_p999_ms": _ms(opened, 99.9),
            "wall_setup_s": statistics.median(t1 - t0 for t0, t1 in setups),
            "wall_us_per_pkt": raw["closed_s"] / delivered * 1e6,
        },
        "host": {**ref.summary(), "closed_factor": closed_factor},
        "samples": {
            "setup_s": len(setups),
            "us_per_pkt": delivered,
            "peak_rss_mb": 1,
            "closed": len(closed),
            "open": len(opened),
        },
        "p99_limit_ms": common.P99_LIMIT_MS,
        "p99_limit_met": p99 <= common.P99_LIMIT_MS and failed == 0,
        "client": {
            "cpu_busy_frac": raw["client_cpu_closed_s"] / raw["closed_s"],
            "open_late_p99_ms": _ms(raw["late"], 99),
        },
        "attempted": raw["sent"],
        "failed": failed,
    }


def run(seed: int, seconds: float, traced: bool, smoke: bool, core: int) -> dict[str, Any]:
    """The daemon workload body for ``workloads.py``.  Untraced, the
    servers and the host reference run on *core*; traced passes are
    not pinned."""
    if smoke:
        seconds = min(seconds, 1.0)
    if not traced:
        setups: list[tuple[float, float]] = []
        with hostref.Reference(core, "daemon") as ref:
            while not smoke and common.more_setups([t1 - t0 for t0, t1 in setups]):
                server = Server(serve_command(), core)
                setups.append((server.started, server.listening))
                server.stop()
            raw = _one_pass(seed, seconds, core)
        setups.append(raw["setup"])
        body = end_to_end(raw, setups, ref)
        body["checks"] = _checks(raw)
        body["raw"] = {k: v for k, v in raw.items()
                       if k not in ("open_lat", "closed_lat", "late")}
        return body

    before = _one_pass(seed, seconds)
    ledger_path = common.OUT / f"daemon-seed{seed}.ledger.json"
    traced_raw = _one_pass(seed, seconds, ledger_path=ledger_path)
    after = _one_pass(seed, seconds)
    server_ledger = json.loads(ledger_path.read_text())
    per_layer, not_claimable, region, work_ns = daemon_layers(
        server_ledger, (before, after), traced_raw,
    )
    passes = {"reference0": before, "traced": traced_raw, "reference1": after}
    return {
        "per_layer": per_layer,
        "not_claimable": not_claimable,
        "chrome_trace": server_ledger["chrome_trace"],
        "ledger": region,
        "work_ns": work_ns,
        "checks": {f"{name}.{k}": v
                   for name, raw in passes.items() for k, v in _checks(raw).items()},
        "attempted": traced_raw["sent"],
        "failed": traced_raw["sent"] - traced_raw["ok"],
    }


def _cpu_per_request(raw: dict[str, Any]) -> float:
    """Server CPU seconds per closed-loop request of one pass (read from
    /proc the same way for traced and untraced servers)."""
    return raw["server_cpu_closed_s"] / len(raw["closed_lat"])


def daemon_layers(
    server_ledger: dict[str, Any],
    references: tuple[dict[str, Any], dict[str, Any]],
    traced: dict[str, Any],
) -> tuple[dict[str, float], list[str], dict[str, Any], float]:
    """Per-layer metrics of the closed-loop phase of the traced server,
    why its shares are not claimable, that phase's attributed ledger,
    and its CPU time net of wrappers.

    What tracing added is server CPU per closed-loop request, traced
    against the mean of the untraced *references*, times the phase's
    requests.
    """
    from ledger import attribute, common_layers, delta, in_situ_scale, trace_metrics

    calib = server_ledger["calibration"]
    marks = server_ledger["marks"]
    # One mark per stats verb, in the client's order: before the open
    # loop (closing set-up), between the phases, after the closed loop,
    # after the drain.
    setup_mark, before, after = marks[0], marks[1], marks[2]
    wall_ns = after["wall_ns"] - before["wall_ns"]
    cpu_ns = after["cpu_ns"] - before["cpu_ns"]

    def d(field: str) -> int:
        return after[field] - before[field]

    requests = d("completed")
    submitted = d("submitted")
    references_ns = tuple(_cpu_per_request(r) * requests * 1e9 for r in references)
    overhead_ns = _cpu_per_request(traced) * requests * 1e9 - statistics.fmean(references_ns)
    raw = delta(after["ledger"], before["ledger"])
    calibrated = attribute(raw, calib, wall_ns)
    region = attribute(raw, calib, wall_ns, in_situ_scale(raw, calib, overhead_ns))
    setup = attribute(setup_mark["ledger"], calib)
    keys = region["keys"]
    layers = region["layers"]
    # Time blocked in select is idle, not work; the server's CPU time
    # outside every other span is asyncio, sockets and handler code.
    idle_ns = keys.get("idle/select", {}).get("incl_ns", 0.0)
    io_ns = cpu_ns - (raw["top_ns"] - idle_ns) - region["outside_ns"]
    work_ns = cpu_ns - region["wrapper_ns"]
    json_ns = layers.get("service.daemon", {}).get("self_ns", 0.0)

    def key(name: str) -> dict[str, float]:
        return keys.get(name, {"self_ns": 0.0, "incl_ns": 0.0, "calls": 0})

    out = common_layers(region, setup, {
        "delivered": d("delivered"), "events": d("events"), "elided": d("elided"),
        "recoveries": d("recoveries"), "measured": d("measured"),
        "total_hops": d("total_hops"),
    }, work_ns)
    submit = key("service.core/submit")
    out.update({
        "memory.service_calls_per_req":
            (key("memory/service")["calls"] + key("memory/service_bulk")["calls"])
            / requests,
        "service.core.submit_us": submit["self_ns"] / submit["calls"] / 1e3,
        "service.core.advance_self_us_per_req":
            key("service.core/advance")["self_ns"] / requests / 1e3,
        "service.core.sim_us_per_req":
            key("network.simulator/run")["incl_ns"] / requests / 1e3,
        "service.core.advances_per_req": key("service.core/advance")["calls"] / requests,
        "service.core.queued_frac": d("queued_total") / submitted,
        "service.core.shed_frac": d("shed") / submitted,
        "service.daemon.json_us_per_req": json_ns / requests / 1e3,
        "service.daemon.io_us_per_req": io_ns / requests / 1e3,
        "service.daemon.cpu_busy_frac": cpu_ns / wall_ns,
        "service.daemon.json_share": json_ns / work_ns,
        "service.daemon.io_share": io_ns / work_ns,
        "bench.client.cpu_busy_frac":
            references[0]["client_cpu_closed_s"] / references[0]["closed_s"],
        "bench.open.late_p99_ms": _ms(references[0]["late"], 99),
    })
    out.pop("idle.share", None)
    layers["service.daemon.io"] = {"self_ns": io_ns, "calls": 0}
    trace, not_claimable = trace_metrics(
        region, calibrated["wrapper_ns"], overhead_ns, references_ns, work_ns,
    )
    out.update(trace)
    # Wall time neither on CPU nor waiting in select.
    out["bench.trace.residual_frac"] = (wall_ns - cpu_ns - idle_ns) / wall_ns
    return out, not_claimable, region, work_ns
