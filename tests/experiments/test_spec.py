"""ExperimentSpec expansion, serialization and hashing."""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentSpec, ExperimentTask


class TestExpansion:
    def test_synthetic_grid_size_and_order(self):
        spec = ExperimentSpec(
            name="grid",
            kind="synthetic",
            designs=("SF", "DM"),
            nodes=(16, 36),
            patterns=("uniform_random", "tornado"),
            rates=(0.1, 0.2, 0.3),
            seeds=(0, 1),
        )
        tasks = spec.tasks()
        assert len(tasks) == 2 * 2 * 2 * 3 * 2
        # Deterministic expansion order: design-major.
        assert tasks[0].design == "SF" and tasks[-1].design == "DM"
        assert tasks == spec.tasks()

    def test_saturation_ignores_rates(self):
        spec = ExperimentSpec(
            name="sat", kind="saturation", designs=("SF",),
            nodes=(16,), patterns=("uniform_random",), rates=(0.1, 0.9),
        )
        tasks = spec.tasks()
        assert len(tasks) == 1
        assert tasks[0].rate is None

    def test_workload_grid(self):
        spec = ExperimentSpec(
            name="wl", kind="workload", designs=("SF", "DM"),
            nodes=(16,), workloads=("redis", "grep"),
        )
        tasks = spec.tasks()
        assert len(tasks) == 4
        assert {t.workload for t in tasks} == {"redis", "grep"}
        assert all(t.pattern is None for t in tasks)

    def test_workload_kind_requires_workloads(self):
        with pytest.raises(ValueError, match="workload"):
            ExperimentSpec(name="bad", kind="workload")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentSpec(name="bad", kind="quantum")

    def test_unknown_design_rejected_at_declaration(self):
        with pytest.raises(ValueError, match="WARP"):
            ExperimentSpec(name="bad", designs=("SF", "WARP"))

    def test_design_aliases_canonicalized(self):
        # Alias spellings collapse to one task/cache identity.
        spec = ExperimentSpec(name="alias", designs=("string-figure",))
        canonical = ExperimentSpec(name="alias", designs=("SF",))
        assert spec.tasks()[0].design == "SF"
        assert spec.tasks()[0].key() == canonical.tasks()[0].key()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="nodes"):
            ExperimentSpec(name="bad", nodes=())
        with pytest.raises(ValueError, match="patterns"):
            ExperimentSpec(name="bad", kind="saturation", patterns=())

    def test_string_axis_rejected(self):
        # A JSON spec with "seeds": "01" used to expand into two tasks
        # with the *string* seeds '0' and '1'.
        with pytest.raises(ValueError, match="seeds"):
            ExperimentSpec.from_json('{"name": "bad", "seeds": "01"}')
        with pytest.raises(ValueError, match="designs"):
            ExperimentSpec(name="bad", designs="SF")

    def test_numeric_axes_typed(self):
        # "16" used to build a task with nodes='16' whose cache key
        # differed from the int spec's.
        with pytest.raises(ValueError, match="nodes"):
            ExperimentSpec.from_json(
                '{"name": "bad", "nodes": ["16"], "rates": [0.1]}'
            )
        with pytest.raises(ValueError, match="seeds"):
            ExperimentSpec(name="bad", seeds=(0, 1.5))
        with pytest.raises(ValueError, match="rates"):
            ExperimentSpec(name="bad", rates=("0.1",))
        with pytest.raises(ValueError, match="rates"):
            ExperimentSpec(name="bad", rates=(True,))
        # Integer rates are numbers and expand to float task rates.
        assert ExperimentSpec(name="ok", rates=(1,)).tasks()[0].rate == 1.0

    def test_unread_axes_not_validated(self):
        # Axes a kind ignores stay ignored, whatever they hold.
        spec = ExperimentSpec(name="ok", kind="path_stats", rates="n/a")
        assert [t.rate for t in spec.tasks()] == [None]


class TestTaskIdentity:
    def test_key_stable_across_param_ordering(self):
        a = ExperimentTask(
            kind="synthetic", design="SF", nodes=16, rate=0.1,
            pattern="uniform_random",
            sim_params=(("measure", 100), ("warmup", 50)),
        )
        b = ExperimentTask.from_dict(
            {
                "kind": "synthetic", "design": "SF", "nodes": 16,
                "rate": 0.1, "pattern": "uniform_random",
                "sim_params": {"warmup": 50, "measure": 100},
            }
        )
        assert a == b
        assert a.key() == b.key()

    def test_key_sensitive_to_every_axis(self):
        base = ExperimentTask(
            kind="synthetic", design="SF", nodes=16, rate=0.1,
            pattern="uniform_random",
        )
        variants = [
            ExperimentTask(kind="synthetic", design="S2", nodes=16,
                           rate=0.1, pattern="uniform_random"),
            ExperimentTask(kind="synthetic", design="SF", nodes=36,
                           rate=0.1, pattern="uniform_random"),
            ExperimentTask(kind="synthetic", design="SF", nodes=16,
                           rate=0.2, pattern="uniform_random"),
            ExperimentTask(kind="synthetic", design="SF", nodes=16,
                           rate=0.1, pattern="tornado"),
            ExperimentTask(kind="synthetic", design="SF", nodes=16,
                           rate=0.1, pattern="uniform_random", seed=1),
            ExperimentTask(kind="synthetic", design="SF", nodes=16,
                           rate=0.1, pattern="uniform_random",
                           topology_seed=1),
        ]
        keys = {base.key()} | {v.key() for v in variants}
        assert len(keys) == 1 + len(variants)

    def test_dict_round_trip(self):
        task = ExperimentTask(
            kind="path_stats", design="SF", nodes=96, seed=1,
            topology_params=(("coord_bits", None), ("ports", 4)),
            sim_params=(("sample_pairs", 800),),
        )
        assert ExperimentTask.from_dict(task.to_dict()) == task


class TestSpecSerialization:
    def test_json_round_trip(self):
        spec = ExperimentSpec(
            name="rt", kind="synthetic", designs=("SF", "ODM"),
            nodes=(16, 36), rates=(0.05, 0.2), seeds=(3,),
            topology_seed=4, sim_params={"warmup": 10},
            topology_params={"ports": 4},
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored.tasks() == spec.tasks()
        assert restored.spec_hash() == spec.spec_hash()

    def test_from_file(self, tmp_path):
        spec = ExperimentSpec(name="file", designs=("SF",), nodes=(16,))
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert ExperimentSpec.from_file(path).tasks() == spec.tasks()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            ExperimentSpec.from_dict({"name": "x", "turbo": True})

    def test_with_overrides_merges_mappings(self):
        base = ExperimentSpec(
            name="base", topology_params={"ports": 4},
            sim_params={"sample_pairs": 800},
        )
        variant = base.with_overrides(
            name="variant", topology_params={"direction": "uni"},
        )
        params = dict(variant.tasks()[0].topology_params)
        assert params == {"ports": 4, "direction": "uni"}
        # The base spec is untouched.
        assert "direction" not in dict(base.tasks()[0].topology_params)
