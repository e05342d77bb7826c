"""One memory-request lifecycle over the page directory.

:class:`MemoryRequestPath` takes a read/write request from its source
node to completion.  It resolves the page through the
:class:`~repro.memory.migration.PageDirectory` (so requests follow
pages that migrate under them), serves a local page or sends a request
packet, acts on the directory's arrival ruling (serve; stall until the
page lands; forward after it; fail a lost page), serves through the
node's banked DRAM and answers the source.  Its two callers, the
migration foreground and the fabric service, keep admission and
injection and hear about terminal states through callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, Any, Callable

from repro.network.packet import Packet, PacketKind

if TYPE_CHECKING:
    from repro.memory.address import AddressMapper
    from repro.memory.migration import PageDirectory
    from repro.memory.node import MemoryNode
    from repro.network.simulator import NetworkSimulator

__all__ = ["REQUEST_HEADER_BYTES", "MemoryRequest", "MemoryRequestPath"]

#: Request packets (and write acks) carry address + tag in a 16-byte header.
REQUEST_HEADER_BYTES = 16


@dataclass(eq=False, slots=True)
class MemoryRequest:
    """The fields :class:`MemoryRequestPath` reads from a request.

    Callers may pass any object with these attributes.  The path acts
    only on requests whose ``status`` is ``"inflight"``: a caller
    retires a request (a timeout, say) by changing its status, and the
    path then drops its late packets and landings.
    """

    src_node: int
    op: str
    page: int
    offset: int
    size: int
    tclass: int = 0
    t_issue: int = 0
    status: str = "inflight"


class MemoryRequestPath:
    """Serve read/write requests wherever the page directory puts the page.

    ``on_complete(request, now)`` fires once per completed request and
    ``on_fail(request, now, "page_lost")`` once per request for a lost
    page (without ``on_fail`` a lost page raises).  ``on_serve(request)``
    fires when DRAM serves it.  Every packet is stamped ``measured`` and
    carries ``(tag, request)`` as its context.

    The response goes to ``request.src_node``.  With
    ``reply_to_forwarder`` a forward re-sources the request at the
    forwarding node instead, so the response (and the completion) land
    there: the migration foreground's rule, which its recorded results
    and the benchmark digests pin.
    """

    def __init__(
        self,
        sim: NetworkSimulator,
        directory: PageDirectory,
        mapper: AddressMapper,
        memory_node: Callable[[int], MemoryNode],
        on_complete: Callable[[Any, int], None],
        on_fail: Callable[[Any, int, str], None] | None = None,
        on_serve: Callable[[Any], None] | None = None,
        tag: str = "mem",
        measured: bool = True,
        reply_to_forwarder: bool = False,
    ) -> None:
        self.sim = sim
        self.directory = directory
        self.mapper = mapper  # local offsets are home-based: any generation works
        self.memory_node = memory_node
        self.on_complete = on_complete
        self.on_fail = on_fail
        self.on_serve = on_serve
        self.tag = tag
        self.measured = measured
        self.reply_to_forwarder = reply_to_forwarder
        self.page_bytes = mapper.interleave_bytes
        # The config is frozen and payloads take few sizes.
        self._packet_flits = cache(sim.config.packet_flits)
        #: Arrivals sent on after their page (``forward`` rulings).
        self.forwarded = 0
        #: Requests that waited for an inbound page (``stall`` rulings).
        self.stalled = 0
        sim.on_delivery(self._on_delivery)

    def inject(self, request: Any, now: int) -> str:
        """Start *request* at its ``src_node``; returns how it began.

        ``"remote"``: a request packet left for the page's node.
        ``"serve"`` / ``"stall"``: the page is local (stalling while it
        lands).  ``"lost"``: the page is gone and the request failed.
        """
        src = request.src_node
        target = self.directory.resolve(request.page)
        if target < 0:
            self._fail(request, now)
            return "lost"
        if target != src:
            self._send(request, src, target, now)
            return "remote"
        return self._arrive(src, request, now)

    def _arrive(self, node: int, request: Any, now: int) -> str:
        """Act on the directory's ruling for *request* at *node*."""
        ruling, target = self.directory.arrival_ruling(node, request.page)
        if ruling == "serve":
            self._serve(node, request, now)
        elif ruling == "stall":
            self.stalled += 1
            self.directory.when_landed(
                request.page, lambda t, n=node, r=request: self._serve(n, r, t)
            )
        elif ruling == "forward":
            self.forwarded += 1
            if self.reply_to_forwarder:
                request.src_node = node
            self._send(request, node, target, now)
        else:
            self._fail(request, now)
        return ruling

    def _serve(self, node: int, request: Any, now: int) -> None:
        """DRAM-serve *request* at *node*, then answer its source."""
        if request.status != "inflight":
            return  # retired while stalled on a landing page
        addr = request.page * self.page_bytes + request.offset
        done = self.memory_node(node).service_bulk(
            now, self.mapper.local_offset(addr), request.size
        )
        if self.on_serve is not None:
            self.on_serve(request)
        if node == request.src_node:
            self.sim.schedule(done, lambda t, r=request: self._complete(r, t))
            return
        read = request.op == "read"
        payload = request.size if read else REQUEST_HEADER_BYTES
        response = Packet(
            src=node,
            dst=request.src_node,
            size_flits=self._packet_flits(payload),
            payload_bytes=payload,
            kind=PacketKind.READ_RESP if read else PacketKind.WRITE_ACK,
            tclass=request.tclass,
            measured=self.measured,
            context=(self.tag, request),
        )
        self.sim.send(response, done)

    def _send(self, request: Any, src: int, dst: int, now: int) -> None:
        read = request.op == "read"
        payload = REQUEST_HEADER_BYTES if read else REQUEST_HEADER_BYTES + request.size
        packet = Packet(
            src=src,
            dst=dst,
            size_flits=self._packet_flits(payload),
            payload_bytes=payload,
            kind=PacketKind.READ_REQ if read else PacketKind.WRITE_REQ,
            tclass=request.tclass,
            measured=self.measured,
            context=(self.tag, request),
        )
        self.sim.send(packet, now)

    def _complete(self, request: Any, now: int) -> None:
        if request.status == "inflight":
            self.on_complete(request, now)

    def _fail(self, request: Any, now: int) -> None:
        if self.on_fail is None:
            raise RuntimeError(f"request for lost page {request.page}")
        self.on_fail(request, now, "page_lost")

    def _on_delivery(self, packet: Packet, now: int) -> None:
        context = packet.context
        if not (isinstance(context, tuple) and len(context) == 2 and context[0] == self.tag):
            return
        request = context[1]
        if request.status != "inflight":
            return  # retired: its late packets are dropped
        kind = packet.kind
        if kind is PacketKind.READ_RESP or kind is PacketKind.WRITE_ACK:
            self.on_complete(request, now)
        elif kind is PacketKind.READ_REQ or kind is PacketKind.WRITE_REQ:
            self._arrive(packet.dst, request, now)
