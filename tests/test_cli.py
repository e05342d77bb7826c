"""CLI surface: `python -m repro ...`."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_topology_defaults(self):
        args = build_parser().parse_args(["topology", "SF"])
        assert args.nodes == 64
        assert args.seed == 0

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["topology", "SF", "--nodes", "32"],
            ["simulate", "DM", "--rate", "0.1"],
            ["workload", "SF", "--workload", "grep"],
            ["reconfigure", "--fraction", "0.2"],
            ["sweep", "--designs", "SF,DM", "--rates", "0.1,0.2"],
            ["churn", "--nodes", "64", "--gate-fraction", "0.25"],
            ["migrate", "--nodes", "64", "--gate-fraction", "0.25"],
            ["faults", "--nodes", "64", "--schedule", "crash"],
        ):
            assert parser.parse_args(argv) is not None

    def test_migrate_defaults(self):
        args = build_parser().parse_args(["migrate"])
        assert args.gate_fraction == 0.25
        assert args.mode == "both"
        assert args.workers == 1

    def test_churn_defaults(self):
        args = build_parser().parse_args(["churn"])
        assert args.gate_fraction == 0.25
        assert args.schedule == "cycle"
        assert args.workers == 1

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.kind == "synthetic"
        assert args.workers == 1
        assert not args.no_cache

    def test_faults_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.designs == "SF,DM,Jellyfish"
        assert args.schedule == "random"
        assert args.detection_timeouts == "200"
        assert not args.no_mirror
        assert args.workers == 1


class TestCommands:
    def test_topology_sf(self, capsys):
        assert main(["topology", "SF", "--nodes", "32"]) == 0
        out = capsys.readouterr().out
        assert "router radix" in out
        assert "virtual spaces" in out

    def test_topology_baseline(self, capsys):
        assert main(["topology", "DM", "--nodes", "16"]) == 0
        out = capsys.readouterr().out
        assert "avg path" in out

    def test_simulate(self, capsys):
        code = main(
            ["simulate", "SF", "--nodes", "24", "--rate", "0.1",
             "--warmup", "50", "--measure", "150"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "avg latency" in out
        assert "accepted" in out

    def test_workload(self, capsys):
        code = main(
            ["workload", "SF", "--workload", "grep", "--nodes", "16",
             "--accesses", "300", "--scale", "0.01"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "runtime" in out

    def test_reconfigure(self, capsys):
        code = main(["reconfigure", "--nodes", "48", "--fraction", "0.15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "down-scaled" in out
        assert "restored" in out

    def test_unknown_topology_errors(self):
        with pytest.raises(ValueError):
            main(["topology", "hypercube"])


class TestSweep:
    ARGS = [
        "sweep", "--designs", "SF,DM", "--nodes", "16",
        "--rates", "0.05,0.1", "--warmup", "30", "--measure", "80",
        "--drain-limit", "2000",
    ]

    def test_sweep_runs_and_caches(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main([*self.ARGS, "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "avg_lat" in out
        assert "4 simulated" in out
        # Second run is served entirely from the cache.
        assert main([*self.ARGS, "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "4 cache hits, 0 simulated" in out

    def test_sweep_no_cache(self, capsys, tmp_path):
        assert main([*self.ARGS, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "0 cache hits" in out
        assert "cache:" not in out

    def test_sweep_output_json(self, capsys, tmp_path):
        output = tmp_path / "payloads.json"
        assert main(
            [*self.ARGS, "--no-cache", "--output", str(output)]
        ) == 0
        import json

        data = json.loads(output.read_text())
        assert len(data) == 4
        entry = next(iter(data.values()))
        assert entry["task"]["design"] in ("SF", "DM")
        assert entry["payload"]["measured_delivered"] > 0

    def test_churn_runs_and_caches(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        args = [
            "churn", "--nodes", "32", "--gate-fraction", "0.2",
            "--rates", "0.1", "--warmup", "150", "--measure", "1500",
            "--drain-limit", "20000", "--cache-dir", cache_dir,
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "peak_ratio" in out
        assert "conservation ok" in out
        assert "gate_off" in out and "gate_on" in out
        # Second run: served from the cache, same report.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "1 cache hits, 0 simulated" in out
        assert "conservation ok" in out

    def test_migrate_runs_and_caches(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        args = [
            "migrate", "--nodes", "32", "--gate-fraction", "0.25",
            "--rates", "0.08", "--rate-limits", "64",
            "--footprint-pages", "64", "--warmup", "150",
            "--measure", "2000", "--drain-limit", "30000",
            "--cache-dir", cache_dir,
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "migrate vs teleport" in out
        assert "KiB actually moved (teleport: 0)" in out
        # Second run: both mode variants served from the cache.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.count("1 cache hits, 0 simulated") == 2

    def test_migrate_single_mode_skips_comparison(self, capsys, tmp_path):
        args = [
            "migrate", "--nodes", "32", "--mode", "teleport",
            "--rates", "0.08", "--footprint-pages", "64",
            "--warmup", "150", "--measure", "1500",
            "--drain-limit", "20000",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "teleport" in out
        assert "migrate vs teleport" not in out

    def test_faults_runs_and_caches(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        args = [
            "faults", "--designs", "SF", "--nodes", "32",
            "--schedule", "crash", "--rates", "0.08",
            "--footprint-pages", "32", "--warmup", "150",
            "--measure", "2500", "--drain-limit", "30000",
            "--cache-dir", cache_dir,
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "conserved" in out
        assert "conservation ok" in out
        assert "node_crash" in out
        assert "recovered" in out
        for phase in ("baseline", "during", "after"):
            assert phase in out
        # Second run: served from the cache, same report.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "1 cache hits, 0 simulated" in out
        assert "conservation ok" in out

    def test_faults_multi_design_comparison(self, capsys, tmp_path):
        args = [
            "faults", "--designs", "SF,DM", "--nodes", "32",
            "--rates", "0.08", "--footprint-pages", "0",
            "--warmup", "150", "--measure", "2000",
            "--drain-limit", "20000",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "resilience comparison" in out
        assert "worst during-fault p99" in out

    def test_timing_flag_refused_by_kind_that_ignores_it(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with pytest.raises(TypeError, match="kind 'path_stats'.*'warmup'"):
            main([
                "sweep", "--kind", "path_stats", "--nodes", "16",
                "--warmup", "5", "--cache-dir", str(cache_dir),
            ])
        assert not list(cache_dir.rglob("*.json"))

    def test_trace_refuses_timing_flag_of_service(self, tmp_path):
        out_dir = tmp_path / "trace"
        with pytest.raises(TypeError, match="kind 'service'.*'warmup'"):
            main([
                "trace", "--kind", "service", "--nodes", "36",
                "--warmup", "5", "--out-dir", str(out_dir),
            ])
        assert not out_dir.exists()

    def test_sweep_from_spec_file(self, capsys, tmp_path):
        from repro.experiments import ExperimentSpec

        spec = ExperimentSpec(
            name="filed", kind="path_stats", designs=("SF",),
            nodes=(24,), seeds=(1,), sim_params={"sample_pairs": 100},
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert main(["sweep", "--spec", str(path), "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "mean_hops" in out
        assert "filed" in out
