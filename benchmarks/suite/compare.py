"""Compare two run sets of the benchmark, metric by metric.

    python3 benchmarks/suite/compare.py base.json change.json

Each file is what ``run.py --out FILE`` appends to, one entry per run.
Run i of one file is paired with run i of the other; collect them in
alternating order (base first, then change first, ...) on the same
host with the same ``--seconds``.  For every (workload, end-to-end
metric) the report gives both sides' median and quartiles, the ratio
of medians with its base, the paired wins, the bound, and a verdict:

* ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither) and its median beats the base median by more than the
  distance between the base's quartiles;
* ``unresolved``: the base's quartile spread is wider than the bound,
  so the runs cannot tell a regression from noise, unless every run
  of the change reads better than every run of the base;
* ``regressed``: the change's median is worse than the base median by
  more than the bound (a share of the base median, plus the floor);
* ``no change`` otherwise.

A failure share that rose is a regression whatever the bound.  The
exit status is 1 when anything regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

import common

#: Share of paired wins needed to claim a gain.
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def samples(data: dict[str, Any], workload: str, metric: str) -> list[float]:
    """The untraced values of *metric* for *workload*, in run order."""
    rows = [run["workloads"][workload] for run in data["runs"]
            if workload in run["workloads"] and not run["workloads"][workload]["trace"]]
    return [row["metrics"][metric] for row in rows if metric in row["metrics"]]


def failure_share(data: dict[str, Any], workload: str) -> tuple[int, int]:
    """(failed, attempted) summed over the untraced runs of *workload*."""
    rows = [run["workloads"][workload] for run in data["runs"]
            if workload in run["workloads"] and not run["workloads"][workload]["trace"]]
    return sum(r["failed"] for r in rows), sum(r["attempted"] for r in rows)


def judge(metric: common.Metric, base: list[float], change: list[float]) -> dict[str, Any]:
    """The verdict for one (workload, metric) and the numbers behind it."""
    worse = 1.0 if metric.better == "lower" else -1.0  # sign of a worsening
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if worse * (c - b) < 0)
    losses = sum(1 for b, c in pairs if worse * (c - b) > 0)
    spread = b3 - b1
    worsening = worse * (c_med - b_med)
    allowed = metric.bound * abs(b_med) + metric.floor
    all_better = all(worse * (c - b) < 0 for c in change for b in base)
    if pairs and wins >= WIN_SHARE * len(pairs) and -worsening > spread:
        verdict = "improved"
    elif b_med and spread / abs(b_med) > metric.bound and not all_better:
        verdict = "unresolved"
    elif worsening > allowed:
        verdict = "regressed"
    else:
        verdict = "no change"
    return {
        "verdict": verdict,
        "base": (b1, b_med, b3, len(base)),
        "change": (c1, c_med, c3, len(change)),
        "ratio": c_med / b_med if b_med else float("nan"),
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
        "allowed": allowed,
    }


def compare(base: dict[str, Any], change: dict[str, Any]) -> list[dict[str, Any]]:
    """Every (workload, metric) row both files have."""
    rows = []
    for workload in common.WORKLOADS:
        for metric in common.END_TO_END:
            if workload not in metric.workloads:
                continue
            a, b = samples(base, workload, metric.name), samples(change, workload, metric.name)
            if not a or not b:
                continue
            if metric.name == "failed_frac":
                fa, na = failure_share(base, workload)
                fb, nb = failure_share(change, workload)
                row = judge(metric, a, b)
                if fb * na > fa * nb:  # the failure share rose
                    row["verdict"] = "regressed"
                elif row["verdict"] == "unresolved":
                    row["verdict"] = "no change"
            else:
                row = judge(metric, a, b)
            rows.append({"workload": workload, "metric": metric.name,
                         "unit": metric.unit, "bound": metric.bound, **row})
    return rows


def _run_facts(data: dict[str, Any]) -> str:
    runs = data["runs"]
    shas = sorted({r["git_sha"][:12] for r in runs})
    canaries = [w["canary_before_kops"] for r in runs for w in r["workloads"].values()]
    noisy = sum(w.get("host_noisy", False) for r in runs for w in r["workloads"].values())
    smoke = any(w["smoke"] for r in runs for w in r["workloads"].values())
    return (f"{len(runs)} runs @ {', '.join(shas)}, canary median "
            f"{statistics.median(canaries):.0f} kops, {noisy} noisy workload runs"
            f"{', SMOKE SIZES (not claimable)' if smoke else ''}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    change = json.loads(args.change.read_text())
    print(f"base:   {args.base}: {_run_facts(base)}")
    print(f"change: {args.change}: {_run_facts(change)}")
    smoke = any(w["smoke"] for d in (base, change) for r in d["runs"]
                for w in r["workloads"].values())
    rows = compare(base, change)
    print(f"\n{'workload':16s} {'metric':12s} {'base median [q1, q3] n':>32s} "
          f"{'change median [q1, q3] n':>32s} {'change/base':>24s} "
          f"{'wins':>6s} {'bound':>6s}  verdict")
    for row in rows:
        b1, bm, b3, bn = row["base"]
        c1, cm, c3, cn = row["change"]
        if smoke and row["verdict"] == "improved":
            row["verdict"] = "no change (smoke)"
        base_col = f"{bm:.4g} [{b1:.4g}, {b3:.4g}] {bn}"
        change_col = f"{cm:.4g} [{c1:.4g}, {c3:.4g}] {cn}"
        ratio_col = f"{row['ratio']:.3f} of {bm:.4g} {row['unit']}"
        print(f"{row['workload']:16s} {row['metric']:12s} {base_col:>32s} "
              f"{change_col:>32s} {ratio_col:>24s} "
              f"{row['wins']:>3d}/{row['pairs']:<2d} {row['bound']:>6.0%}  {row['verdict']}")
    print()
    for workload in common.WORKLOADS:
        fa, na = failure_share(base, workload)
        fb, nb = failure_share(change, workload)
        if na or nb:
            print(f"{workload:16s} failures: base {fa}/{na}, change {fb}/{nb}")
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
