"""ParallelRunner execution, caching and memoization behavior."""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentSpec,
    ExperimentTask,
    ParallelRunner,
    ResultCache,
    clear_memo,
    execute_task,
    memo_sizes,
)
from repro.experiments import runner as runner_module
from repro.experiments.kinds import KINDS

QUICK_SIM = {"warmup": 30, "measure": 80, "drain_limit": 2000}


def quick_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        name="quick",
        kind="synthetic",
        designs=("SF",),
        nodes=(16,),
        patterns=("uniform_random",),
        rates=(0.05, 0.1),
        seeds=(0,),
        sim_params=QUICK_SIM,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestSerialExecution:
    def test_all_tasks_get_payloads(self):
        result = ParallelRunner().run(quick_spec())
        assert len(result) == 2
        for _task, payload in result:
            assert payload["measured_delivered"] > 0
            assert payload["accepted_rate"] == pytest.approx(1.0)

    def test_select_and_value(self):
        result = ParallelRunner().run(quick_spec())
        assert len(result.select(design="SF")) == 2
        latency = result.value("avg_latency", rate=0.1)
        assert latency > 0
        with pytest.raises(KeyError):
            result.get(design="DM")

    def test_duplicate_tasks_run_once(self):
        spec = quick_spec()
        result = ParallelRunner().run([spec, spec])
        assert len(result) == 2
        assert result.cache_misses == 2

    def test_unsupported_scale_is_data_not_error(self):
        # DM (mesh) cannot be built at 17 nodes.
        result = ParallelRunner().run(
            quick_spec(designs=("DM",), nodes=(17,), rates=(0.05,))
        )
        payload = result.get(design="DM")
        assert payload.get("unsupported") is True

    def test_unknown_kind_raises(self):
        task = ExperimentTask(kind="bogus", design="SF", nodes=16)
        with pytest.raises(ValueError, match="bogus"):
            execute_task(task)

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=-2)

    def test_programmer_errors_propagate(self):
        # A typo'd topology or sim_params key is a bug, not an
        # unsupported point — it must raise, serially and through the
        # pool alike.
        base = ExperimentSpec(
            name="typo", kind="path_stats", designs=("SF",),
            nodes=(16, 24), sim_params={"sample_pairs": 20},
        )
        for typo in (
            {"topology_params": {"cord_bits": 5}},
            {"sim_params": {"sample_pair": 5}},
        ):
            spec = base.with_overrides(**typo)
            with pytest.raises(TypeError):
                ParallelRunner().run(spec)
            with pytest.raises(TypeError):
                ParallelRunner(workers=2).run(spec)

    @pytest.mark.parametrize("kind", KINDS)
    def test_unknown_sim_param_refused_before_cache(self, kind, tmp_path):
        calls = []

        class WatchedCache(ResultCache):
            def get(self, task):
                calls.append("get")
                return super().get(task)

            def put(self, task, payload):
                calls.append("put")
                super().put(task, payload)

        spec = ExperimentSpec(
            name="unknown-key", kind=kind, designs=("SF",), nodes=(16,),
            rates=(0.05,), workloads=("redis",),
            sim_params={"mesure": 50},
        )
        runner = ParallelRunner(cache=WatchedCache(tmp_path))
        match = f"kind '{kind}' does not read sim_params 'mesure'"
        with pytest.raises(TypeError, match=match):
            runner.run(spec)
        with pytest.raises(TypeError, match=match):
            execute_task(spec.tasks()[0])
        assert calls == []


class TestCaching:
    def test_second_run_hits_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(cache=cache)
        spec = quick_spec()
        first = runner.run(spec)
        assert (first.cache_hits, first.cache_misses) == (0, 2)
        second = runner.run(spec)
        assert (second.cache_hits, second.cache_misses) == (2, 0)
        assert second.payloads == first.payloads

    def test_extending_grid_only_simulates_new_points(self, tmp_path):
        runner = ParallelRunner(cache=ResultCache(tmp_path))
        runner.run(quick_spec())
        extended = runner.run(quick_spec(rates=(0.05, 0.1, 0.2)))
        assert extended.cache_hits == 2
        assert extended.cache_misses == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = quick_spec().tasks()[0]
        cache.path_for(task).write_text("{not json")
        assert cache.get(task) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(cache=cache)
        runner.run(quick_spec())
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_code_change_invalidates_generation(self, tmp_path):
        spec = quick_spec()
        old = ParallelRunner(cache=ResultCache(tmp_path, fingerprint="aaa"))
        old.run(spec)
        # Same cache root, different code fingerprint: stale entries
        # must not be served.
        new_cache = ResultCache(tmp_path, fingerprint="bbb")
        result = ParallelRunner(cache=new_cache).run(spec)
        assert result.cache_hits == 0
        assert result.cache_misses == 2

    def test_stale_generations_pruned(self, tmp_path):
        stale = tmp_path / "0123456789ab"
        stale.mkdir()
        (stale / "deadbeef.json").write_text("{}")
        keep = tmp_path / "not-a-fingerprint"
        keep.mkdir()
        cache = ResultCache(tmp_path, fingerprint="aaaaaaaaaaaa")
        assert not stale.exists()
        assert keep.exists()
        assert cache.directory.exists()

    def test_hand_built_alias_task_shares_cache_identity(self):
        lower = ExperimentTask(
            kind="synthetic", design="sf", nodes=16,
            pattern="uniform_random", rate=0.1,
        )
        upper = ExperimentTask(
            kind="synthetic", design="SF", nodes=16,
            pattern="uniform_random", rate=0.1,
        )
        assert lower.design == "SF"
        assert lower.key() == upper.key()

    def test_default_fingerprint_is_stable(self, tmp_path):
        a = ResultCache(tmp_path)
        b = ResultCache(tmp_path)
        assert a.fingerprint == b.fingerprint
        assert len(a.fingerprint) == 12
        assert a.directory == b.directory


class TestMemoization:
    def test_topology_built_once_per_grid(self, monkeypatch):
        clear_memo()
        monkeypatch.setattr(runner_module, "KEEP_MEMO", True)
        ParallelRunner().run(
            quick_spec(rates=(0.05, 0.1, 0.2, 0.3))
        )
        sizes = memo_sizes()
        assert sizes["topologies"] == 1
        assert sizes["policies"] == 1
        clear_memo()
        assert memo_sizes()["topologies"] == 0

    def test_memo_cleared_after_sweep_by_default(self):
        clear_memo()
        ParallelRunner().run(quick_spec())
        assert memo_sizes()["topologies"] == 0

    def test_distinct_topology_params_not_conflated(self, monkeypatch):
        clear_memo()
        monkeypatch.setattr(runner_module, "KEEP_MEMO", True)
        runner = ParallelRunner()
        base = ExperimentSpec(
            name="ps", kind="path_stats", designs=("SF",), nodes=(24,),
            seeds=(1,), topology_params={"ports": 4},
            sim_params={"sample_pairs": 100},
        )
        uni = base.with_overrides(topology_params={"direction": "uni"})
        result = runner.run([base, uni])
        hops = [payload["mean_hops"] for _task, payload in result]
        assert memo_sizes()["topologies"] == 2
        # Uni-directional routing pays extra hops — the two variants
        # really were built separately.
        assert hops[1] > hops[0]
        clear_memo()


class TestKinds:
    def test_saturation_payload(self, tmp_path):
        spec = ExperimentSpec(
            name="sat", kind="saturation", designs=("SF",), nodes=(16,),
            patterns=("uniform_random",), seeds=(2,),
            sim_params={"warmup": 40, "measure": 100,
                        "drain_limit": 2000, "resolution": 0.2},
        )
        payload = ParallelRunner().run(spec).get(design="SF")
        assert 0.0 <= payload["saturation_rate"] <= 1.0

    def test_workload_payload(self):
        spec = ExperimentSpec(
            name="wl", kind="workload", designs=("SF",), nodes=(16,),
            workloads=("grep",),
            sim_params={"trace_accesses": 200, "trace_scale": 0.01,
                        "trace_seed": 0},
        )
        payload = ParallelRunner().run(spec).get(workload="grep")
        assert payload["operations"] > 0
        assert payload["throughput_ops_per_kcycle"] > 0
        assert payload["network_pj"] > 0
        assert payload["radix"] == 4

    def test_path_stats_payload(self):
        spec = ExperimentSpec(
            name="ps", kind="path_stats", designs=("SF",), nodes=(24,),
            seeds=(1,), sim_params={"sample_pairs": 100},
        )
        payload = ParallelRunner().run(spec).get(design="SF")
        assert payload["mean_hops"] >= 1.0
        assert payload["max_hops"] >= payload["p90_hops"]
        assert 0.0 <= payload["min_balance"] <= 1.0

    def test_path_stats_on_table_routed_design_is_unsupported(self):
        # Mesh has no greediest protocol; the point is data, not a crash.
        spec = ExperimentSpec(
            name="ps-dm", kind="path_stats", designs=("DM",), nodes=(16,),
            sim_params={"sample_pairs": 50},
        )
        payload = ParallelRunner().run(spec).get(design="DM")
        assert payload.get("unsupported") is True

    def test_workload_seed_axis_varies_the_trace(self):
        spec = ExperimentSpec(
            name="wl-seeds", kind="workload", designs=("SF",), nodes=(16,),
            workloads=("grep",), seeds=(0, 1),
            sim_params={"trace_accesses": 200, "trace_scale": 0.01},
        )
        result = ParallelRunner().run(spec)
        a = result.get(seed=0)
        b = result.get(seed=1)
        # Different seeds collect different traces -> different replays.
        assert a != b
