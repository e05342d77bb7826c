"""The daemon's wire behaviour, pinned byte for byte over real sockets.

These tests talk to a :class:`FabricDaemon` the way an outside client
does: raw bytes on a TCP connection, with no helper that would hide
how lines are framed, split, batched or ordered.
"""

from __future__ import annotations

import asyncio
import json

from repro.service.core import FabricService
from repro.service.daemon import FabricDaemon

#: Seconds any single wait may take before the test fails instead of hangs.
TIMEOUT = 10

#: The longest line (bytes before its newline) the daemon accepts.
MAX_LINE = 1 << 16


async def boot():
    service = FabricService(nodes=36, design="SF", footprint_pages=64)
    daemon = FabricDaemon(service, quantum=32)
    host, port = await daemon.start()
    return service, daemon, host, port


async def send(writer, data: bytes) -> None:
    writer.write(data)
    await writer.drain()


async def read_line(reader) -> bytes:
    return await asyncio.wait_for(reader.readline(), timeout=TIMEOUT)


async def read_reply(reader) -> dict:
    """Read one reply line and check its bytes are the canonical encoding."""
    line = await read_line(reader)
    payload = json.loads(line)
    assert line == json.dumps(payload, sort_keys=True).encode() + b"\n", line
    return payload


def line(message: dict) -> bytes:
    return json.dumps(message).encode() + b"\n"


def test_reply_lines_are_sorted_json_bytes():
    """Every reply kind, with unicode tenants and non-string ids, is
    exactly ``json.dumps(payload, sort_keys=True)`` plus a newline."""

    async def scenario():
        service, daemon, host, port = await boot()
        reader, writer = await asyncio.open_connection(host, port)
        tenant = "ténant-租户-🧠"
        await send(writer, line({"op": "hello", "tenant": tenant}))
        assert await read_reply(reader) == {"ok": True, "tenant": tenant}
        ids = [7, 2.5, None, True, [1, "a"], {"k": "ü"}, "é"]
        for i, mid in enumerate(ids):
            op = "read" if i % 2 else "write"
            await send(writer, line({"op": op, "page": i, "id": mid}))
            reply = await read_reply(reader)
            assert reply["id"] == mid and reply["ok"], reply
            assert reply["tenant"] == tenant and reply["op"] == op
        stats = {"op": "stats", "id": 3}
        await send(writer, line(stats))
        assert (await read_reply(reader))["id"] == 3
        await send(writer, line({"op": "metrics", "id": [0]}))
        assert (await read_reply(reader))["id"] == [0]
        await send(writer, line({"op": "frobnicate", "id": {"x": None}}))
        reply = await read_reply(reader)
        assert reply == {"ok": False, "id": {"x": None}, "error": "unknown op 'frobnicate'"}
        await send(writer, line({"op": "read", "page": "x", "id": 9}))
        reply = await read_reply(reader)
        assert reply["ok"] is False and reply["id"] == 9
        assert reply["error"].startswith("bad request: ")
        await send(writer, line({"op": "read", "page": 9999, "id": -1}))
        reply = await read_reply(reader)
        assert reply["ok"] is False and reply["status"] == "error"
        await send(writer, line({"op": "drain", "id": 1.0}))
        reply = await read_reply(reader)
        assert reply["verb"] == "drain" and reply["id"] == 1.0
        writer.close()
        await daemon.stop()

    asyncio.run(scenario())


def test_pipelined_data_replies_precede_the_drain_reply():
    """Requests written back to back, then ``drain``, with no read in
    between: every data reply arrives exactly once, all before drain's."""

    async def scenario():
        service, daemon, host, port = await boot()
        reader, writer = await asyncio.open_connection(host, port)
        count = 60
        for i in range(count):
            op = "write" if i % 3 == 0 else "read"
            writer.write(line({"op": op, "page": i % 64, "size": 64, "id": i}))
        writer.write(line({"op": "drain", "id": "d"}))
        await writer.drain()
        seen = []
        while True:
            reply = await read_reply(reader)
            if reply["id"] == "d":
                break
            seen.append(reply["id"])
        assert sorted(seen) == list(range(count))
        assert reply["verb"] == "drain" and reply["all_conserved"]
        # Nothing more follows the drain reply.
        await send(writer, line({"op": "stats", "id": "s"}))
        assert (await read_reply(reader))["id"] == "s"
        writer.close()
        await daemon.stop()

    asyncio.run(scenario())


def test_split_and_coalesced_requests_each_answered_once():
    async def scenario():
        service, daemon, host, port = await boot()
        reader, writer = await asyncio.open_connection(host, port)
        whole = line({"op": "read", "page": 5, "id": "split"})
        await send(writer, whole[:9])
        await asyncio.sleep(0.05)
        await send(writer, whole[9:])
        reply = await read_reply(reader)
        assert reply["id"] == "split" and reply["status"] == "done"
        reads = [line({"op": "read", "page": p, "id": f"b{p}"}) for p in (1, 2, 3)]
        await send(writer, b"".join(reads) + line({"op": "stats", "id": "st"}))
        ids = [(await read_reply(reader))["id"] for _ in range(4)]
        assert sorted(ids) == ["b1", "b2", "b3", "st"]
        await send(writer, line({"op": "drain", "id": "d"}))
        assert (await read_reply(reader))["id"] == "d"
        assert service.snapshot()["completed"] == 4
        writer.close()
        await daemon.stop()

    asyncio.run(scenario())


def test_blank_and_malformed_lines():
    """Blank lines are skipped; a non-object line and invalid UTF-8 get
    the ``bad json`` replies; the connection keeps serving."""

    async def scenario():
        service, daemon, host, port = await boot()
        reader, writer = await asyncio.open_connection(host, port)
        await send(writer, b"\n   \n\r\n" + line({"op": "stats", "id": 1}))
        assert (await read_reply(reader))["id"] == 1
        await send(writer, b"[1, 2]\n")
        assert await read_reply(reader) == {
            "ok": False,
            "error": "bad json: message must be a JSON object",
        }
        garbage = b"\xff\xfe{"
        try:
            json.loads(garbage)
        except ValueError as exc:
            expected = f"bad json: {exc}"
        await send(writer, garbage + b"\n")
        assert await read_reply(reader) == {"ok": False, "error": expected}
        await send(writer, line({"op": "read", "page": 2, "id": "ok"}))
        reply = await read_reply(reader)
        assert reply["id"] == "ok" and reply["status"] == "done"
        writer.close()
        await daemon.stop()

    asyncio.run(scenario())


def padded_stats(length: int) -> bytes:
    """A ``stats`` line of exactly *length* bytes before its newline."""
    head, tail = b'{"op": "stats", "id": "big", "pad": "', b'"}'
    return head + b"x" * (length - len(head) - len(tail)) + tail + b"\n"


def test_line_limit_closes_only_the_offending_connection():
    """A line of 64 KiB is served; one byte more closes that connection
    (the client reads EOF) while every other connection keeps serving."""

    async def scenario():
        service, daemon, host, port = await boot()
        reader, writer = await asyncio.open_connection(host, port)
        other_reader, other_writer = await asyncio.open_connection(host, port)
        await send(writer, padded_stats(MAX_LINE))
        assert (await read_reply(reader))["id"] == "big"
        await send(writer, padded_stats(MAX_LINE + 1))
        assert await read_line(reader) == b""
        await send(other_writer, line({"op": "read", "page": 1, "id": "alive"}))
        reply = await read_reply(other_reader)
        assert reply["id"] == "alive" and reply["status"] == "done"
        writer.close()
        other_writer.close()
        await daemon.stop()

    asyncio.run(scenario())
