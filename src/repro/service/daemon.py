"""The asyncio ingestion frontier: newline-JSON sockets over the core.

:class:`FabricDaemon` owns a :class:`~repro.service.core.FabricService`
and a TCP server speaking one JSON object per line (so ``nc`` and shell
scripts work).  Concurrency is cooperative, not parallel: connection
handlers only *enqueue* parsed messages into an inbox; a single pump
coroutine alternately (1) applies every queued message at the current
simulated-cycle boundary and (2) advances the event loop by a fixed
quantum.  Handlers and the pump interleave on one asyncio loop, so the
core never sees a submit mid-run — exactly the sequencing invariant
that makes a captured log replay bit-identically.

Simulated time is therefore *ingestion-driven*: it advances only while
requests are outstanding or queued input exists, and stalls (cheaply,
on an ``asyncio.Event``) when the fabric is quiescent.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.service.core import FabricService, ServiceRequest

__all__ = ["FabricDaemon"]


def _request_fields(message: dict[str, Any]) -> dict[str, Any]:
    """The typed fields of a ``read``/``write`` line.

    ``page``, ``offset`` and ``size`` must convert to integers (else
    ``TypeError``, ``ValueError`` or ``OverflowError``); range checks stay with
    :meth:`FabricService.submit`, which logs the request first.
    """
    size = message.get("size")
    return {
        "op": message["op"],
        "page": int(message.get("page", -1)),
        "offset": int(message.get("offset", 0)),
        "size": None if size is None else int(size),
        "id": message.get("id"),
    }


class FabricDaemon:
    """Serve one resident :class:`FabricService` over newline-JSON TCP.

    The wire protocol (full reference in ``docs/SERVICE.md``): data
    verbs ``read``/``write`` complete asynchronously — the response
    line carries the request's ``id`` and end-to-end simulated latency;
    ``hello`` names the connection's tenant; control verbs ``stats``,
    ``scale``, ``fault``, ``drain``, ``shutdown`` answer in arrival
    order at the next quantum boundary.  The read-only ``metrics``
    verb returns the observability snapshot plus a Prometheus text
    exposition (probes are installed lazily on the first scrape).
    """

    def __init__(
        self,
        service: FabricService,
        host: str = "127.0.0.1",
        port: int = 0,
        quantum: int = 64,
        slow_log_stream=None,
    ) -> None:
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {quantum}")
        self.service = service
        if slow_log_stream is not None:
            # Stream each slow-request record (identity + component
            # breakdown) as one JSON line the moment it is logged —
            # the ``repro serve --slow-log`` operator feed.  The ring
            # in the service keeps the recent history either way.
            def emit(record, stream=slow_log_stream):
                stream.write(json.dumps(record, sort_keys=True) + "\n")
                stream.flush()

            service.on_slow = emit
        self.host = host
        self.port = port
        self.quantum = quantum
        self._inbox: list[tuple[str, Any, Any]] = []
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._stopping = False
        self._server: asyncio.AbstractServer | None = None
        self._pump_task: asyncio.Task | None = None
        self._next_client = 0
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the server and start the pump; returns (host, port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._pump_task = asyncio.get_running_loop().create_task(self._pump())
        return self.host, self.port

    async def wait_stopped(self) -> None:
        """Block until a ``shutdown`` verb (or :meth:`stop`) completes."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Drain the fabric and tear the server down."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        self._wake.set()
        if self._pump_task is not None:
            await self._pump_task
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopped.set()

    # -- connection handling -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        tenant = f"client-{self._next_client}"
        self._next_client += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            while not self._stopping:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    message = json.loads(line)
                    if not isinstance(message, dict):
                        raise ValueError("message must be a JSON object")
                except ValueError as exc:
                    self._reply(writer, {
                        "ok": False, "error": f"bad json: {exc}",
                    })
                    continue
                verb = message.get("op")
                if verb == "hello":
                    tenant = str(message.get("tenant", tenant))
                    self._reply(writer, {"ok": True, "tenant": tenant})
                elif verb == "stats":
                    # Read-only; safe between awaits and never logged.
                    self._reply(
                        writer,
                        {**self.service.snapshot(), "id": message.get("id")},
                    )
                elif verb == "metrics":
                    # Read-only like ``stats``: rendered between
                    # awaits, never logged, never touches the request
                    # path.  First scrape installs the probes.
                    self._reply(writer, self._metrics_reply(message))
                elif verb in ("read", "write"):
                    # Reject wrong-typed fields here: a conversion
                    # error inside the pump would kill it for everyone.
                    try:
                        fields = _request_fields(message)
                    except (TypeError, ValueError, OverflowError) as exc:
                        self._reply(writer, {
                            "ok": False, "id": message.get("id"),
                            "error": f"bad request: {exc}",
                        })
                        continue
                    self._enqueue("request", (tenant, fields), writer)
                elif verb in ("scale", "fault", "drain", "shutdown"):
                    self._enqueue("control", message, writer)
                else:
                    self._reply(writer, {
                        "ok": False, "id": message.get("id"),
                        "error": f"unknown op {verb!r}",
                    })
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._conn_writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    def _metrics_reply(self, message: dict[str, Any]) -> dict[str, Any]:
        """The ``metrics`` verb body: snapshot + Prometheus exposition.

        Probes are installed on the first scrape — installation only
        attaches observers (no events, no sequence numbers), so doing
        it mid-run is safe and keeps unscraped daemons entirely
        uninstrumented.  Event-type counters start from the install
        point; pull metrics (delivered, shed, tenant latency) reflect
        the full run regardless.
        """
        service = self.service
        probes = service.probes
        if probes is None:
            probes = service.install_probes()
        return {
            "ok": True,
            "id": message.get("id"),
            "now": service.sim.now,
            "metrics": probes.registry.snapshot(),
            "prometheus": probes.registry.to_prometheus(),
        }

    def _enqueue(self, kind: str, payload: Any, writer) -> None:
        self._inbox.append((kind, payload, writer))
        self._wake.set()

    def _reply(self, writer, payload: dict[str, Any]) -> None:
        if writer.is_closing():
            return
        try:
            writer.write(json.dumps(payload, sort_keys=True).encode() + b"\n")
        except (ConnectionResetError, RuntimeError):
            pass

    # -- the pump ------------------------------------------------------------

    def _idle(self) -> bool:
        service = self.service
        return (
            not self._inbox
            and service.outstanding == 0
            and not service._queue
            and service.sim.pending_events == 0
        )

    async def _pump(self) -> None:
        """Single writer of simulated time: ingest, advance, yield."""
        service = self.service
        while not self._stopping:
            if self._idle():
                self._wake.clear()
                if self._idle():  # re-check after clear (enqueue races)
                    await self._wake.wait()
                continue
            batch, self._inbox = self._inbox, []
            stop_after = False
            for kind, payload, writer in batch:
                if kind == "request":
                    self._apply_request(payload, writer)
                else:
                    if self._apply_control(payload, writer):
                        stop_after = True
            if stop_after:
                self._stopping = True
                break
            service.advance(self.quantum)
            # Yield so handlers can read more client lines before the
            # next quantum.
            await asyncio.sleep(0)
        # Reached on shutdown-verb exit or external stop(): tear the
        # server down, EOF every open connection so its handler exits
        # on its own (no task cancellation, which Python 3.11 streams
        # report noisily at loop close), and wait for the handlers.
        if self._server is not None:
            self._server.close()
        for writer in list(self._conn_writers):
            try:
                writer.close()
            except Exception:
                pass
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._stopped.set()

    def _apply_request(self, payload: tuple[str, dict], writer) -> None:
        tenant, fields = payload

        def on_done(req: ServiceRequest, w=writer, mid=fields["id"]):
            """Write the terminal-state response line back to the client."""
            body = req.to_dict()
            body["id"] = mid
            body["ok"] = req.status == "done"
            self._reply(w, body)

        self.service.submit(
            tenant,
            fields["op"],
            fields["page"],
            offset=fields["offset"],
            size=fields["size"],
            req_id=fields["id"],
            on_done=on_done,
        )

    def _apply_control(self, message: dict, writer) -> bool:
        """Apply one control verb; returns True when it was ``shutdown``."""
        verb, get = message["op"], message.get
        direction = get("direction", "down")
        if verb == "scale" and direction == "down":
            result = self.service.scale_down(get("fraction"), get("count"), get("nodes"))
        elif verb == "scale" and direction == "up":
            result = self.service.scale_up(get("nodes"))
        elif verb == "scale":
            result = {"ok": False, "error": 'direction must be "down" or "up"'}
        elif verb == "fault":
            result = self.service.inject_fault(
                get("kind", "node_crash"), get("node"), get("link"), get("duration", 0)
            )
        else:
            # drain, or shutdown: drain first so conservation is checked
            # exactly once, then report and stop the daemon.
            result = self.service.drain()
            if verb == "shutdown":
                result = {**result, "verb": "shutdown"}
        self._reply(writer, {**result, "id": get("id")})
        return verb == "shutdown"
