"""Data-migration engine: directory invariants, real movement, stalls."""

from __future__ import annotations

import pytest

from repro.core.routing import AdaptiveGreediestRouting
from repro.core.topology import StringFigureTopology
from repro.memory.address import AddressMapper
from repro.memory.migration import (
    MigrationEngine,
    PageDirectory,
    PageState,
)
from repro.memory.node import MemoryNodePool
from repro.network.config import NetworkConfig
from repro.network.policies import GreedyPolicy
from repro.network.simulator import NetworkSimulator
from repro.workloads.migration import run_migration


class TestPageDirectory:
    def _directory(self, nodes=(0, 1, 2, 3), pages=16):
        mapper = AddressMapper(list(nodes))
        directory = PageDirectory()
        directory.populate(mapper, pages)
        return mapper, directory

    def test_populate_matches_mapper(self):
        mapper, directory = self._directory()
        for page in range(directory.num_pages):
            assert directory.owner_of(page) == mapper.node_of(mapper.page_addr(page))
            assert directory.state_of(page) is PageState.RESIDENT

    def test_arrival_rulings(self):
        _mapper, directory = self._directory()
        owner = directory.owner_of(0)
        other = (owner + 1) % 4
        assert directory.arrival_ruling(owner, 0) == ("serve", owner)
        assert directory.arrival_ruling(other, 0) == ("forward", owner)
        directory.begin_move(0, owner, other)
        assert directory.state_of(0) is PageState.IN_FLIGHT
        # New requests head for the destination and stall there...
        assert directory.resolve(0) == other
        assert directory.arrival_ruling(other, 0) == ("stall", other)
        # ...while stragglers reaching the source get forwarded on.
        assert directory.arrival_ruling(owner, 0) == ("forward", other)

    def test_land_flips_owner_and_releases_waiters(self):
        _mapper, directory = self._directory()
        src = directory.owner_of(3)
        dst = (src + 2) % 4
        directory.begin_move(3, src, dst)
        fired = []
        directory.when_landed(3, fired.append)
        directory.land(3, 777)
        assert fired == [777]
        assert directory.owner_of(3) == dst
        assert directory.state_of(3) is PageState.RESIDENT

    def test_begin_move_validates_source(self):
        _mapper, directory = self._directory()
        owner = directory.owner_of(0)
        with pytest.raises(RuntimeError):
            directory.begin_move(0, owner + 1, owner)
        directory.begin_move(0, owner, (owner + 1) % 4)
        with pytest.raises(RuntimeError):
            directory.begin_move(0, owner, (owner + 2) % 4)

    def test_waiting_requires_inflight(self):
        _mapper, directory = self._directory()
        with pytest.raises(ValueError):
            directory.when_landed(0, lambda t: None)

    def test_teleport_rejects_inflight_pages(self):
        _mapper, directory = self._directory()
        owner = directory.owner_of(0)
        directory.begin_move(0, owner, (owner + 1) % 4)
        with pytest.raises(RuntimeError):
            directory.teleport(0, (owner + 1) % 4)

    def test_conservation_check(self):
        _mapper, directory = self._directory()
        assert directory.check_conservation()
        owner = directory.owner_of(5)
        directory.begin_move(5, owner, (owner + 1) % 4)
        assert directory.check_conservation()
        directory.land(5, 0)
        assert directory.check_conservation()


def _engine_stack(
    nodes=32, pages=64, mode="migrate", rate_limit=64.0, **engine_kwargs
):
    topo = StringFigureTopology(nodes, 4, seed=7)
    policy = GreedyPolicy(AdaptiveGreediestRouting(topo))
    sim = NetworkSimulator(topo, policy, NetworkConfig())
    mapper = AddressMapper(list(topo.active_nodes))
    directory = PageDirectory()
    directory.populate(mapper, pages)
    engine = MigrationEngine(
        sim, mapper, directory, MemoryNodePool(sim),
        rate_limit_bytes_per_cycle=rate_limit, mode=mode, **engine_kwargs,
    )
    return sim, engine, directory


class TestMigrationEngine:
    def test_migrate_out_empties_victims(self):
        sim, engine, directory = _engine_stack()
        victims = engine.mapper.nodes[:4]
        planned = sum(len(directory.resident_on(v)) for v in victims)
        record = engine.migrate_out(victims)
        sim.drain()
        assert record.done
        assert record.pages_moved == record.pages_planned == planned
        assert record.bytes_moved == planned * engine.page_bytes
        for victim in victims:
            assert directory.resident_on(victim) == []
        assert directory.check_conservation()

    def test_conservation_holds_at_every_sampled_instant(self):
        """Every page is resident on one node or in flight, always."""
        sim, engine, directory = _engine_stack(rate_limit=16.0)
        violations = []

        def probe(now):
            if not directory.check_conservation():
                violations.append(now)
            owners = [directory.owner_of(p) for p in directory.pages]
            if len(owners) != directory.num_pages:
                violations.append(now)
            if engine.busy:
                sim.schedule(now + 64, probe)

        engine.migrate_out(engine.mapper.nodes[:4])
        sim.schedule(1, probe)
        sim.drain()
        assert not violations

    def test_round_trip_restores_residency(self):
        sim, engine, directory = _engine_stack()
        before = {p: directory.owner_of(p) for p in directory.pages}
        victims = engine.mapper.nodes[:4]
        engine.migrate_out(victims)
        engine.migrate_in(victims)  # queued behind the out-batch
        sim.drain()
        assert all(r.done for r in engine.records)
        assert {p: directory.owner_of(p) for p in directory.pages} == before

    def test_rate_limit_paces_makespan(self):
        slow_sim, slow_engine, _ = _engine_stack(rate_limit=8.0)
        fast_sim, fast_engine, _ = _engine_stack(rate_limit=128.0)
        slow_engine.migrate_out(slow_engine.mapper.nodes[:4])
        fast_engine.migrate_out(fast_engine.mapper.nodes[:4])
        slow_sim.drain()
        fast_sim.drain()
        slow = slow_engine.records[0].makespan_cycles
        fast = fast_engine.records[0].makespan_cycles
        assert slow > fast

    def test_on_done_fires_after_last_land(self):
        sim, engine, directory = _engine_stack()
        done_at = []
        engine.migrate_out(engine.mapper.nodes[:2], on_done=done_at.append)
        sim.drain()
        assert len(done_at) == 1
        assert done_at[0] == engine.records[0].t_end

    def test_teleport_moves_no_bytes(self):
        sim, engine, directory = _engine_stack(mode="teleport")
        victims = engine.mapper.nodes[:4]
        done_at = []
        record = engine.migrate_out(victims, on_done=done_at.append)
        sim.drain()
        assert record.done and record.bytes_moved == 0
        assert record.makespan_cycles == 0
        assert sim.stats.sent == 0  # zero network traffic
        assert done_at == [record.t_start]
        for victim in victims:
            assert directory.resident_on(victim) == []

    def test_parameter_validation(self):
        sim, engine, directory = _engine_stack()
        with pytest.raises(ValueError):
            MigrationEngine(
                sim, engine.mapper, directory, lambda n: None,
                rate_limit_bytes_per_cycle=0,
            )
        with pytest.raises(ValueError):
            MigrationEngine(
                sim, engine.mapper, directory, lambda n: None,
                max_inflight_pages=0,
            )
        with pytest.raises(ValueError):
            MigrationEngine(
                sim, engine.mapper, directory, lambda n: None, chunk_bytes=8
            )
        with pytest.raises(ValueError):
            MigrationEngine(
                sim, engine.mapper, directory, lambda n: None, mode="warp"
            )


def _scenario(mode="migrate", **kwargs):
    params = dict(
        rate=0.08,
        gate_fraction=0.25,
        footprint_pages=96,
        warmup=200,
        measure=2500,
        seed=0,
        mode=mode,
    )
    params.update(kwargs)
    topo = StringFigureTopology(32, 4, seed=11)
    return run_migration(topo, **params)


class TestRunMigration:
    @pytest.fixture(scope="class")
    def migrated(self):
        return _scenario("migrate")

    @pytest.fixture(scope="class")
    def teleported(self):
        return _scenario("teleport")

    def test_packet_conservation(self, migrated):
        stats = migrated.stats
        assert stats.sent == stats.delivered
        assert stats.in_flight == 0

    def test_no_foreground_request_lost(self, migrated):
        fg = migrated.foreground
        assert fg.issued == fg.completed
        assert fg.issued > 0

    def test_page_conservation_after_drain(self, migrated):
        assert migrated.directory.check_conservation()
        payload = migrated.payload()
        assert payload["page_conservation"]

    def test_real_bytes_moved_and_restored(self, migrated):
        payload = migrated.payload()
        gated = len(migrated.events[0].nodes)
        # Out + back in: each gated node's pages cross the network twice.
        assert payload["pages_moved"] == 2 * gated * (96 // 32)
        assert payload["bytes_moved"] == payload["pages_moved"] * 4096
        assert payload["migration_makespan"] > 0
        assert payload["migrations_done"]

    def test_events_carry_migration_records(self, migrated):
        assert len(migrated.events) == 2
        for event in migrated.events:
            assert event.migration is not None
            assert event.migration.done
        out, back = migrated.events
        assert out.migration.kind == "out"
        assert back.migration.kind == "in"
        # Migrate-out finished before the victims' links went down.
        assert out.migration.t_end <= out.t_blocked

    def test_teleport_baseline_is_free_and_undisturbed_by_stalls(self, teleported):
        payload = teleported.payload()
        assert payload["bytes_moved"] == 0
        assert payload["migration_makespan"] == 0
        assert payload["fg_stalled"] == 0
        assert payload["fg_issued"] == payload["fg_completed"]

    def test_migration_costs_show_up_vs_teleport(self, migrated, teleported):
        real = migrated.payload()
        free = teleported.payload()
        assert real["bytes_moved"] > free["bytes_moved"]
        # Same foreground offered load in both modes (same seed/rate).
        assert real["fg_issued"] == free["fg_issued"]

    def test_run_is_deterministic(self, migrated):
        again = _scenario("migrate")
        assert again.payload() == migrated.payload()

    def test_rejects_bad_windows(self):
        topo = StringFigureTopology(32, 4, seed=11)
        with pytest.raises(ValueError):
            run_migration(topo, gate_at=500, wake_at=400)

    def test_rejects_sub_cacheline_pages(self):
        topo = StringFigureTopology(32, 4, seed=11)
        with pytest.raises(ValueError, match="cache line"):
            run_migration(topo, page_bytes=32, footprint_pages=8)

    def test_migrate_in_rejects_unknown_nodes(self):
        _sim, engine, _directory = _engine_stack()
        with pytest.raises(ValueError, match="home order"):
            engine.migrate_in([10_000])
