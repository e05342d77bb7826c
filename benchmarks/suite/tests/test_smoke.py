"""End to end: the whole benchmark at smoke size, and its contract."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import common
import pytest

RUN = common.SUITE / "run.py"


def contract() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_all_four_workloads_quickly(trace, tmp_path):
    out = tmp_path / "run.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--trace", str(trace), "--out", str(out)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert elapsed < 60, f"smoke run took {elapsed:.1f}s"
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    spec = contract()["per_layer" if trace else "end_to_end"]
    want = {f"{w}.{m['name']}" for w in common.WORKLOADS for m in spec}
    assert set(last["metrics"]) == want
    # Every listed metric was computed by every workload, not filled in.
    (run,) = json.loads(out.read_text())["runs"]
    for workload, result in run["workloads"].items():
        computed = result["per_layer" if trace else "metrics"]
        assert {m["name"] for m in spec} <= set(computed), workload
    for workload in common.WORKLOADS:
        assert f"== {workload} seed=0" in proc.stdout
    if trace:
        for workload in common.WORKLOADS:
            residual = last["metrics"][f"{workload}.bench.trace.residual_frac"]["value"]
            assert abs(residual) < 0.1, (workload, residual)
        assert proc.stdout.count("layer shares: ") == len(common.WORKLOADS)
    else:
        for entry in spec:  # end-to-end metrics are never zero
            for workload in common.WORKLOADS:
                assert last["metrics"][f"{workload}.{entry['name']}"]["value"] > 0


def test_without_source_tree_it_fails_without_a_result(tmp_path):
    """Only BENCHMARK.json and the suite: exit non-zero, print no result."""
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(common.SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "daemon",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _ended(pid: int) -> bool:
    """Gone, or a zombie waiting for whoever inherited it."""
    try:
        stat = (Path("/proc") / str(pid) / "stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def test_child_ends_when_its_parent_is_killed(tmp_path):
    pid_file = tmp_path / "child.pid"
    script = (
        "import subprocess, sys, time\n"
        f"sys.path.insert(0, {str(common.SUITE)!r})\n"
        "import common\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'],"
        " preexec_fn=common.child_setup())\n"
        f"open({str(pid_file)!r}, 'w').write(str(child.pid))\n"
        "time.sleep(60)\n"
    )
    parent = subprocess.Popen([sys.executable, "-c", script])
    deadline = time.monotonic() + 30
    while not pid_file.is_file() or not pid_file.read_text():
        assert time.monotonic() < deadline, "parent never started its child"
        time.sleep(0.05)
    child = int(pid_file.read_text())
    parent.kill()
    parent.wait(timeout=10)
    deadline = time.monotonic() + 10
    while not _ended(child):
        assert time.monotonic() < deadline, "child outlived its killed parent"
        time.sleep(0.05)


def test_contract_matches_the_metric_table():
    spec = contract()
    table = {m.name: m for m in common.END_TO_END}
    for entry in spec["end_to_end"]:
        metric = table[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit, metric.better, metric.bound)
        assert set(metric.workloads) == set(common.WORKLOADS)
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert spec["paths"] == ["benchmarks/suite"]
