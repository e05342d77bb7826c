"""compare.py's rule on fabricated run sets: a win, a regression, an
unresolved case, and a failure-share increase."""

from __future__ import annotations

import common
import compare


def run_set(values: dict[str, list[float]], failed: int = 0) -> dict:
    """A compare.py input whose core_uniform runs carry *values*."""
    count = len(next(iter(values.values())))
    runs = []
    for i in range(count):
        metrics = {name: series[i] for name, series in values.items()}
        runs.append({
            "git_sha": "f" * 40,
            "workloads": {"core_uniform": {
                "trace": False, "smoke": False, "metrics": metrics,
                "attempted": 1000, "failed": failed,
                "canary_before_kops": 900.0, "host_noisy": False,
            }},
        })
    return {"runs": runs}


def verdicts(base: dict, change: dict) -> dict[str, str]:
    return {row["metric"]: row["verdict"] for row in compare.compare(base, change)}


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.4]


def test_consistent_gain_is_improved():
    faster = [v * 0.85 for v in BASE]
    got = verdicts(run_set({"us_per_pkt": BASE}), run_set({"us_per_pkt": faster}))
    assert got["us_per_pkt"] == "improved"


def test_gain_needs_nine_of_ten_wins():
    mixed = [v * 0.85 for v in BASE[:8]] + [v * 1.02 for v in BASE[8:]]
    got = verdicts(run_set({"us_per_pkt": BASE}), run_set({"us_per_pkt": mixed}))
    assert got["us_per_pkt"] != "improved"


def test_worsening_beyond_bound_is_regressed():
    bound = next(m.bound for m in common.END_TO_END if m.name == "us_per_pkt")
    slower = [v * (1 + 2 * bound) for v in BASE]
    got = verdicts(run_set({"us_per_pkt": BASE}), run_set({"us_per_pkt": slower}))
    assert got["us_per_pkt"] == "regressed"
    assert compare.judge(
        next(m for m in common.END_TO_END if m.name == "us_per_pkt"), BASE, slower,
    )["ratio"] > 1


def test_worsening_within_bound_is_no_change():
    slightly = [v * 1.01 for v in BASE]
    got = verdicts(run_set({"us_per_pkt": BASE}), run_set({"us_per_pkt": slightly}))
    assert got["us_per_pkt"] == "no change"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    same = list(noisy)
    got = verdicts(run_set({"us_per_pkt": noisy}), run_set({"us_per_pkt": same}))
    assert got["us_per_pkt"] == "unresolved"


def test_higher_is_better_metrics_flip_the_direction():
    rate = next(m for m in common.END_TO_END if m.name == "req_per_s")
    more = [v * (1 + 2 * rate.bound) for v in BASE]
    assert compare.judge(rate, BASE, more)["verdict"] == "improved"
    assert compare.judge(rate, more, BASE)["verdict"] == "regressed"


def test_setup_floor_absorbs_tiny_absolute_changes():
    setup = next(m for m in common.END_TO_END if m.name == "setup_s")
    base = [0.2] * 10
    assert compare.judge(setup, base, [0.3] * 10)["verdict"] == "no change"
    assert compare.judge(setup, base, [0.5] * 10)["verdict"] == "regressed"


def test_any_failure_increase_is_regressed():
    base = run_set({"failed_frac": [0.0] * 10})
    change = run_set({"failed_frac": [0.001] * 10}, failed=1)
    assert verdicts(base, change)["failed_frac"] == "regressed"
    assert verdicts(base, base)["failed_frac"] == "no change"
