"""The correctness gate: digests detect any change in simulated results."""

from __future__ import annotations

import copy
import json

import pytest
import workloads


@pytest.fixture(scope="module")
def episode():
    """One smoke-size core_incast_qos episode (QoS + anatomy payload)."""
    return workloads.episode(
        "core_incast_qos", workloads.SMOKE_SIZES["core_incast_qos"], seed=0,
    )


def test_episode_is_deterministic_and_conserved(episode):
    again = workloads.episode(
        "core_incast_qos", workloads.SMOKE_SIZES["core_incast_qos"], seed=0,
    )
    assert again["digest"] == episode["digest"]
    assert all(episode["checks"].values()), episode["checks"]
    other = workloads.episode(
        "core_incast_qos", workloads.SMOKE_SIZES["core_incast_qos"], seed=1,
    )
    assert other["digest"] != episode["digest"]


@pytest.mark.parametrize("path", [
    ("delivered",),
    ("latency", 2),
    ("class_p99", "1"),
    ("anatomy", "components", "queueing"),
])
def test_perturbed_payload_changes_the_digest(episode, path):
    payload = copy.deepcopy(episode["simulated"])
    assert workloads.digest(payload) == episode["digest"]
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += 1
    assert workloads.digest(payload) != episode["digest"]


def test_digest_mismatch_fails_the_run(tmp_path, monkeypatch):
    """A recorded digest that differs marks the workload failed, exit 1."""
    monkeypatch.setattr(workloads, "expected_digest",
                        lambda name, seed, smoke: "0" * 64)
    # main() pins its process to one core; keep this one unpinned.
    monkeypatch.setattr(workloads.os, "sched_setaffinity", lambda pid, cpus: None)
    result = tmp_path / "result.json"
    code = workloads.main([
        "--workload", "core_uniform", "--seed", "0", "--smoke",
        "--result", str(result),
    ])
    data = json.loads(result.read_text())
    assert code == 1
    assert data["correct"] is False
    assert data["checks"]["digest_matches_expected"] is False


def test_recorded_digests_cover_seeds_zero_to_two():
    recorded = json.loads(workloads.EXPECTED.read_text())
    for name in ("core_uniform", "core_incast_qos", "elastic_migrate"):
        assert sorted(recorded[name]) == ["0", "1", "2"]
