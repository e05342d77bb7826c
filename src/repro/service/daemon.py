"""The asyncio ingestion frontier: newline-JSON sockets over the core.

:class:`FabricDaemon` owns a :class:`~repro.service.core.FabricService`
and a TCP server speaking one JSON object per line (so ``nc`` and shell
scripts work).  Each connection is an :class:`asyncio.Protocol` whose
``data_received`` splits out the complete lines and dispatches each one
on the spot: read-only verbs and malformed lines are answered at once,
data and control verbs only *enqueue* into an inbox.  A single pump
coroutine alternately (1) applies every queued message at the current
simulated-cycle boundary and (2) advances the event loop by a fixed
quantum.  Connections and the pump interleave on one asyncio loop, so
the core never sees a submit mid-run — exactly the sequencing invariant
that makes a captured log replay bit-identically.

Simulated time is therefore *ingestion-driven*: it advances only while
requests are outstanding or queued input exists, and stalls (cheaply,
on an ``asyncio.Event``) when the fabric is quiescent.

Replies never go to the socket one by one.  Each connection keeps one
outbox of reply lines, flushed with a single ``transport.write`` at the
end of each ``data_received``, before each control verb is applied, and
at the end of each pump step (after the advance, before the pump
yields).  The outbox is therefore empty whenever the loop runs anything
else: a connection receives its replies in the order they were made,
and a pump step costs one ``send`` per connection it answered.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.service.core import FabricService, ServiceRequest

__all__ = ["FabricDaemon"]

#: The longest line, in bytes before its newline, a client may send.  A
#: longer one closes that client's connection; others keep serving.
MAX_LINE_BYTES = 1 << 16


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


class _Connection(asyncio.Protocol):
    """One client socket: line framing in, one outbox of replies out."""

    def __init__(self, daemon: FabricDaemon, tenant: str) -> None:
        self.daemon = daemon
        self.tenant = tenant
        self.transport: asyncio.Transport | None = None
        #: Encoded reply lines not yet written, in the order they were made.
        self.outbox: list[str] = []
        self._partial = b""

    def connection_made(self, transport: asyncio.Transport) -> None:
        """Register with the daemon so the pump flushes this outbox."""
        self.transport = transport
        self.daemon._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        """Leave the pump's flush set; late replies are dropped."""
        self.daemon._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        """Dispatch every complete line, then flush the replies made."""
        lines = (self._partial + data).split(b"\n")
        self._partial = lines.pop()
        daemon = self.daemon
        too_long = len(self._partial) > MAX_LINE_BYTES
        for line in lines:
            if len(line) > MAX_LINE_BYTES:
                too_long = True
                break
            if daemon._stopping:
                break
            daemon._dispatch(self, line)
        self.flush()
        if too_long:
            self.transport.close()

    def eof_received(self) -> None:
        """Serve a last line that lacks its newline; then the socket closes."""
        if self._partial:
            self.data_received(b"\n")

    def reply(self, payload: dict[str, Any]) -> None:
        """Queue one reply line; it leaves at the next flush."""
        self.outbox.append(json.dumps(payload, sort_keys=True))

    def flush(self) -> None:
        """Write the whole outbox with one ``transport.write``."""
        outbox = self.outbox
        if outbox:
            if not self.transport.is_closing():
                self.transport.write(("\n".join(outbox) + "\n").encode())
            outbox.clear()


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
        self._inbox: list[tuple[str, Any, _Connection]] = []
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._stopping = False
        self._server: asyncio.AbstractServer | None = None
        self._pump_task: asyncio.Task | None = None
        self._next_client = 0
        self._connections: set[_Connection] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the server and start the pump; returns (host, port)."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(self._connection, self.host, self.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._pump_task = loop.create_task(self._pump())
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

    def _connection(self) -> _Connection:
        tenant = f"client-{self._next_client}"
        self._next_client += 1
        return _Connection(self, tenant)

    def _dispatch(self, conn: _Connection, line: bytes) -> None:
        """Answer or enqueue one line from *conn*."""
        line = line.strip()
        if not line:
            return
        try:
            message = json.loads(line)
            if not isinstance(message, dict):
                raise ValueError("message must be a JSON object")
        except ValueError as exc:
            conn.reply({"ok": False, "error": f"bad json: {exc}"})
            return
        verb = message.get("op")
        if verb == "hello":
            conn.tenant = str(message.get("tenant", conn.tenant))
            conn.reply({"ok": True, "tenant": conn.tenant})
        elif verb == "stats":
            # Read-only; safe between pump steps and never logged.
            conn.reply({**self.service.snapshot(), "id": message.get("id")})
        elif verb == "metrics":
            # Read-only like ``stats``: rendered between pump steps,
            # never logged, never touches the request path.  First
            # scrape installs the probes.
            conn.reply(self._metrics_reply(message))
        elif verb in ("read", "write"):
            # Reject wrong-typed fields here: a conversion error inside
            # the pump would kill it for everyone.
            try:
                fields = _request_fields(message)
            except (TypeError, ValueError, OverflowError) as exc:
                conn.reply({
                    "ok": False, "id": message.get("id"),
                    "error": f"bad request: {exc}",
                })
                return
            self._enqueue("request", (conn.tenant, fields), conn)
        elif verb in ("scale", "fault", "drain", "shutdown"):
            self._enqueue("control", message, conn)
        else:
            conn.reply({
                "ok": False, "id": message.get("id"),
                "error": f"unknown op {verb!r}",
            })

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

    def _enqueue(self, kind: str, payload: Any, conn: _Connection) -> None:
        self._inbox.append((kind, payload, conn))
        self._wake.set()

    def _flush(self) -> None:
        """Write every connection's outbox to its socket."""
        for conn in self._connections:
            conn.flush()

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
        """Single writer of simulated time: ingest, advance, flush, yield."""
        service = self.service
        while not self._stopping:
            if self._idle():
                self._wake.clear()
                if self._idle():  # re-check after clear (enqueue races)
                    await self._wake.wait()
                continue
            batch, self._inbox = self._inbox, []
            stop_after = False
            for kind, payload, conn in batch:
                if kind == "request":
                    self._apply_request(payload, conn)
                else:
                    self._flush()
                    if self._apply_control(payload, conn):
                        stop_after = True
            if stop_after:
                self._stopping = True
                break
            service.advance(self.quantum)
            self._flush()
            # Yield so connections can read more client lines before
            # the next quantum.
            await asyncio.sleep(0)
        # Reached on shutdown-verb exit or external stop(): send what
        # is left, stop accepting, and close every open connection
        # (each transport writes out its buffer before it closes).
        self._flush()
        if self._server is not None:
            self._server.close()
        for conn in list(self._connections):
            conn.transport.close()
        self._stopped.set()

    def _apply_request(self, payload: tuple[str, dict], conn: _Connection) -> None:
        tenant, fields = payload

        def on_done(req: ServiceRequest, reply=conn.reply, mid=fields["id"]):
            """Queue the terminal-state response line for the client."""
            body = req.to_dict()
            body["id"] = mid
            body["ok"] = req.status == "done"
            reply(body)

        self.service.submit(
            tenant,
            fields["op"],
            fields["page"],
            offset=fields["offset"],
            size=fields["size"],
            req_id=fields["id"],
            on_done=on_done,
        )

    def _apply_control(self, message: dict, conn: _Connection) -> bool:
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
        conn.reply({**result, "id": get("id")})
        return verb == "shutdown"
