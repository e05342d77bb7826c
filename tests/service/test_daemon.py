"""Daemon wire protocol: newline-JSON verbs over real sockets."""

from __future__ import annotations

import asyncio
import json

from repro.service.core import FabricService
from repro.service.daemon import FabricDaemon


async def boot(**overrides):
    params = dict(nodes=36, design="SF", footprint_pages=64)
    params.update(overrides)
    service = FabricService(**params)
    daemon = FabricDaemon(service, quantum=32)
    host, port = await daemon.start()
    return service, daemon, host, port


async def connect(host, port):
    return await asyncio.open_connection(host, port)


async def roundtrip(reader, writer, message: dict) -> dict:
    writer.write(json.dumps(message).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def test_read_write_roundtrip():
    async def scenario():
        service, daemon, host, port = await boot()
        reader, writer = await connect(host, port)
        ack = await roundtrip(
            reader, writer, {"op": "hello", "tenant": "alice"}
        )
        assert ack == {"ok": True, "tenant": "alice"}
        resp = await roundtrip(
            reader, writer, {"op": "read", "page": 3, "id": "r1"}
        )
        assert resp["ok"] and resp["status"] == "done"
        assert resp["id"] == "r1" and resp["tenant"] == "alice"
        assert resp["latency"] > 0
        resp = await roundtrip(
            reader, writer,
            {"op": "write", "page": 4, "size": 256, "id": "w1"},
        )
        assert resp["ok"] and resp["op"] == "write"
        writer.close()
        await daemon.stop()

    asyncio.run(scenario())


def test_stats_and_error_handling():
    async def scenario():
        service, daemon, host, port = await boot()
        reader, writer = await connect(host, port)
        bad = await roundtrip(reader, writer, {"op": "frobnicate"})
        assert not bad["ok"] and "unknown op" in bad["error"]
        not_json = b"this is not json\n"
        writer.write(not_json)
        await writer.drain()
        parse_err = json.loads(await reader.readline())
        assert not parse_err["ok"]
        out_of_range = await roundtrip(
            reader, writer, {"op": "read", "page": 9999, "id": "bad"}
        )
        assert not out_of_range["ok"] and out_of_range["status"] == "error"
        stats = await roundtrip(reader, writer, {"op": "stats"})
        assert stats["ok"] and stats["nodes"] == 36
        assert "tenants" in stats
        writer.close()
        await daemon.stop()

    asyncio.run(scenario())


def test_malformed_fields_rejected_and_daemon_keeps_serving():
    async def scenario():
        service, daemon, host, port = await boot()
        reader, writer = await connect(host, port)

        async def rpc(message):
            # A dead pump never answers: bound the wait so the failure
            # is an assertion, not a hang.
            return await asyncio.wait_for(
                roundtrip(reader, writer, message), timeout=10
            )

        bad_lines = [
            {"op": "read", "page": "x", "id": 1},
            {"op": "read", "page": 2, "offset": [0], "id": 2},
            {"op": "write", "page": 2, "size": "big", "id": 3},
            {"op": "read", "page": None, "id": 4},
            {"op": "read", "page": float("inf"), "id": 5},
        ]
        for message in bad_lines:
            reply = await rpc(message)
            assert reply["ok"] is False and reply["id"] == message["id"]
            assert reply["error"]
        assert service.log_entries == []
        good = await rpc({"op": "read", "page": 2, "id": "ok"})
        assert good["ok"] and good["status"] == "done" and good["id"] == "ok"
        writer.close()
        await daemon.stop()

    asyncio.run(scenario())


def test_hostile_control_verbs_refused_and_daemon_keeps_serving():
    """Malformed or stale ``scale``/``fault`` arguments get an error
    reply before anything is logged or queued; none reaches the pump as
    an exception (which would end it: no later reply, ever)."""

    async def scenario():
        service, daemon, host, port = await boot()
        reader, writer = await connect(host, port)

        async def rpc(message):
            return await asyncio.wait_for(
                roundtrip(reader, writer, message), timeout=10
            )

        hostile = [
            {"op": "scale", "direction": "down", "nodes": [999]},
            {"op": "scale", "direction": "down"},
            {"op": "scale", "direction": "down", "fraction": "x"},
            {"op": "scale", "direction": "down", "count": "2"},
            {"op": "scale", "direction": "down", "nodes": "ab"},
            {"op": "scale", "direction": "down", "nodes": [3, 3]},
            {"op": "scale", "direction": "up", "nodes": [5]},
            {"op": "scale", "direction": "sideways"},
            {"op": "scale", "direction": 5},
            {"op": "fault", "kind": "link_flap", "duration": "x"},
            {"op": "fault", "kind": "node_crash", "node": 999},
            {"op": "fault", "kind": "link_down", "link": 7},
        ]
        for i, message in enumerate(hostile):
            reply = await rpc({**message, "id": i})
            assert reply["ok"] is False and reply["id"] == i, reply
            assert reply["error"]
        assert service.log_entries == []
        assert service.fabric.gated == []
        assert service.live.pending_operations == 0
        good = await rpc({"op": "read", "page": 2, "id": "ok"})
        assert good["ok"] and good["status"] == "done"
        # A stale wake queued anyway would fail a wake latency later,
        # inside the drain.
        drained = await rpc({"op": "drain", "id": "d"})
        assert drained["all_conserved"]
        writer.close()
        await daemon.stop()

    asyncio.run(scenario())


def test_default_tenant_assigned_per_connection():
    async def scenario():
        service, daemon, host, port = await boot()
        r1, w1 = await connect(host, port)
        r2, w2 = await connect(host, port)
        await roundtrip(r1, w1, {"op": "read", "page": 1, "id": "a"})
        await roundtrip(r2, w2, {"op": "read", "page": 2, "id": "b"})
        stats = await roundtrip(r1, w1, {"op": "stats"})
        assert len(stats["tenants"]) == 2  # client-0, client-1
        w1.close()
        w2.close()
        await daemon.stop()

    asyncio.run(scenario())


def test_drain_and_shutdown_verbs():
    async def scenario():
        service, daemon, host, port = await boot()
        reader, writer = await connect(host, port)
        for i in range(5):
            writer.write(json.dumps(
                {"op": "read", "page": i, "id": f"r{i}"}
            ).encode() + b"\n")
        await writer.drain()
        for _ in range(5):
            json.loads(await reader.readline())
        drained = await roundtrip(reader, writer, {"op": "drain", "id": "d"})
        assert drained["verb"] == "drain" and drained["all_conserved"]
        down = await roundtrip(reader, writer, {"op": "shutdown"})
        assert down["verb"] == "shutdown" and down["all_conserved"]
        writer.close()
        await daemon.wait_stopped()
        assert service.outstanding == 0

    asyncio.run(scenario())


def test_concurrent_clients_all_complete():
    async def scenario():
        service, daemon, host, port = await boot(
            max_outstanding=6, node_watermark=2, queue_depth=64
        )
        done = []

        async def client(idx):
            reader, writer = await connect(host, port)
            for i in range(10):
                resp = await roundtrip(reader, writer, {
                    "op": "read", "page": (idx * 13 + i) % 64,
                    "id": f"{idx}/{i}",
                })
                done.append(resp["status"])
            writer.close()

        await asyncio.gather(*[client(i) for i in range(8)])
        # Every conservation law holds at drain under concurrent clients.
        assert service.drain()["all_conserved"]
        await daemon.stop()
        assert len(done) == 80
        assert all(status == "done" for status in done)
        assert service.queued_total > 0  # budget 6 vs 8 clients

    asyncio.run(scenario())
