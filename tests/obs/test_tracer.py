"""PacketTracer: deterministic sampling, bounds, and exports."""

from __future__ import annotations

import json

import pytest

from repro.obs.tracer import EVENT_NAMES, PacketTracer


class TestSampling:
    def test_decision_is_deterministic(self):
        a = PacketTracer(fraction=0.1, seed=3)
        b = PacketTracer(fraction=0.1, seed=3)
        assert [a.traced(pid) for pid in range(500)] == [
            b.traced(pid) for pid in range(500)
        ]

    def test_seed_changes_selection(self):
        a = PacketTracer(fraction=0.1, seed=0)
        b = PacketTracer(fraction=0.1, seed=1)
        assert [a.traced(p) for p in range(2000)] != [
            b.traced(p) for p in range(2000)
        ]

    def test_fraction_extremes(self):
        none = PacketTracer(fraction=0.0)
        everything = PacketTracer(fraction=1.0)
        assert not any(none.traced(p) for p in range(100))
        assert all(everything.traced(p) for p in range(100))

    def test_fraction_roughly_honored(self):
        tracer = PacketTracer(fraction=0.1, seed=0)
        hits = sum(tracer.traced(p) for p in range(20_000))
        assert 0.05 < hits / 20_000 < 0.15

    def test_fraction_validated(self):
        with pytest.raises(ValueError, match="fraction"):
            PacketTracer(fraction=1.5)


class TestBounds:
    def test_hop_records_bounded(self):
        tracer = PacketTracer(fraction=1.0, max_records=3)
        for i in range(10):
            tracer.hop(i, "arrive", i)
        assert len(tracer.records) == 3
        assert tracer.dropped_records == 7

    def test_ring_keeps_last_n(self):
        tracer = PacketTracer(ring_size=4)
        for cycle in range(10):
            tracer.note_event(cycle, cycle % len(EVENT_NAMES))
        dump = tracer.ring_dump()
        assert len(dump) == 4
        assert [d["cycle"] for d in dump] == [6, 7, 8, 9]
        assert dump[-1]["type"] == EVENT_NAMES[9 % len(EVENT_NAMES)]


class TestExports:
    def _traced(self) -> PacketTracer:
        tracer = PacketTracer(fraction=1.0)
        tracer.hop(5, "inject", 1, 0, 9)
        tracer.hop(6, "enqueue", 1, 0, 4, extra=2)
        tracer.hop(7, "send", 1, 0, 4, extra=3)
        tracer.hop(10, "deliver", 1, 9, 0, extra=5)
        return tracer

    def test_jsonl_one_record_per_line(self):
        lines = self._traced().to_jsonl().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["kind"] for r in records] == [
            "inject", "enqueue", "send", "deliver",
        ]
        assert records[1]["extra"] == 2

    def test_empty_exports(self):
        tracer = PacketTracer()
        assert tracer.to_jsonl() == ""
        assert tracer.chrome_trace()["traceEvents"][0]["ph"] == "M"

    def test_chrome_trace_shape(self):
        trace = self._traced().chrome_trace()
        events = trace["traceEvents"]
        assert json.loads(json.dumps(trace)) == trace  # JSON-safe
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        (send,) = [e for e in events if e["ph"] == "X"]
        assert send["dur"] == 3 and send["ts"] == 7
        # Each traced packet gets a named thread track.
        names = [e for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert names[0]["args"]["name"] == "pkt 1"

    def test_write_files(self, tmp_path):
        tracer = self._traced()
        chrome = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        tracer.write_chrome(chrome)
        tracer.write_jsonl(jsonl)
        assert "traceEvents" in json.loads(chrome.read_text())
        assert len(jsonl.read_text().splitlines()) == 4


class TestPacketIdsPerSimulator:
    """Packet ids are numbered per simulator, so a traced run samples the
    same packets whatever ran before it in the same process."""

    @staticmethod
    def _traced_run():
        from repro.obs import FabricProbes
        from repro.topologies.registry import make_policy, make_topology
        from repro.traffic.injection import run_synthetic
        from repro.traffic.patterns import make_pattern

        topo = make_topology("SF", 16, seed=0)
        probes = FabricProbes(tracer=PacketTracer(fraction=0.2, seed=1))
        run_synthetic(
            topo,
            make_policy(topo),
            make_pattern("uniform_random", topo.active_nodes),
            0.1,
            warmup=20,
            measure=100,
            drain_limit=2_000,
            seed=0,
            instrument=probes.attach_sim,
        )
        return probes.tracer.records

    def test_same_run_traces_same_packet_ids(self):
        first = self._traced_run()
        assert first
        self._traced_run()  # another run in the same process
        assert self._traced_run() == first
        pids = {record[2] for record in first}
        assert min(pids) < 50
