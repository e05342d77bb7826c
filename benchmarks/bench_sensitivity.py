"""Sensitivity studies and ablations (paper §IV-C, §VI and DESIGN.md).

One bench per design choice the paper (or our DESIGN.md) calls out:

* **uni- vs bi-directional links** — the paper picks uni-directional
  after finding the gap small and shrinking with N;
* **1-hop vs 1+2-hop routing tables** — the paper routes on the
  two-hop window "based on our sensitivity studies";
* **coordinate precision** — hardware stores 7-bit coordinates;
* **balanced vs plain-uniform coordinates** — the balance criterion of
  BalancedCoordinateGen (Figure 4b);
* **shortcut ablation on a down-scaled network** — shortcuts are the
  mechanism that keeps reconfigured networks fast (and S2 lacks them).

Each study is a family of declarative ``path_stats`` specs (one per
knob setting) run through the experiment engine; variant specs derive
from a shared base via :meth:`ExperimentSpec.with_overrides`, and
shared grid points (e.g. the full-precision reference topology) are
simulated once.  The shortcut ablation stays hand-rolled: it mutates a
topology mid-experiment, which pure cacheable tasks must not do.
"""

from __future__ import annotations

from conftest import print_table, scale

from repro.analysis.paths import greedy_path_stats
from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import GreediestRouting
from repro.core.topology import StringFigureTopology
from repro.experiments import ExperimentSpec

SIZES = scale([32, 64, 128], [32, 64, 128, 256, 512])
PAIRS = scale(800, 2500)

BASE = ExperimentSpec(
    name="sensitivity",
    kind="path_stats",
    designs=("SF",),
    nodes=SIZES,
    seeds=(1,),
    topology_params={"ports": 4},
    sim_params={"sample_pairs": PAIRS},
)


def test_unidirectional_vs_bidirectional(
    benchmark, record_result, experiment_runner
):
    specs = {
        direction: BASE.with_overrides(
            name=f"sensitivity-direction-{direction}",
            topology_seed=2,
            topology_params={"direction": direction},
        )
        for direction in ("bi", "uni")
    }

    def run():
        sweep = experiment_runner.run(list(specs.values()))
        print(f"\n[engine] direction: {sweep.summary()}")
        return {
            n: {
                d: sweep.value(
                    "mean_hops", nodes=n,
                    topology_params=specs[d].tasks()[0].topology_params,
                )
                for d in specs
            }
            for n in SIZES
        }

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [n, f"{data[n]['bi']:.2f}", f"{data[n]['uni']:.2f}",
         f"{data[n]['uni'] / data[n]['bi']:.2f}"]
        for n in SIZES
    ]
    print_table(
        "Sensitivity: uni- vs bi-directional links (greediest hops)",
        ["N", "bi", "uni", "ratio"],
        rows,
    )
    record_result("sensitivity_direction", data)
    ratios = [data[n]["uni"] / data[n]["bi"] for n in SIZES]
    # Uni-directional routing pays a bounded hop penalty (clockwise-only
    # progress per space).  Note: the paper's near-parity claim is about
    # end-to-end performance with the *wire budget* held constant (a
    # bi-directional wire carries half the per-direction bandwidth);
    # our simulator models full-duplex links, so the fair structural
    # comparison here is hops-per-wire — uni uses half the wires.
    assert all(r < 2.2 for r in ratios)
    assert all(r > 1.0 for r in ratios)


def test_one_hop_vs_two_hop_tables(
    benchmark, record_result, experiment_runner
):
    specs = {
        label: BASE.with_overrides(
            name=f"sensitivity-tables-{label}",
            topology_seed=3,
            sim_params={"use_two_hop": use_two_hop},
        )
        for label, use_two_hop in (("two_hop", True), ("one_hop", False))
    }

    def run():
        sweep = experiment_runner.run(list(specs.values()))
        print(f"\n[engine] table depth: {sweep.summary()}")
        return {
            n: {
                label: sweep.value(
                    "mean_hops", nodes=n,
                    sim_params=specs[label].tasks()[0].sim_params,
                )
                for label in specs
            }
            for n in SIZES
        }

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [n, f"{data[n]['one_hop']:.2f}", f"{data[n]['two_hop']:.2f}"]
        for n in SIZES
    ]
    print_table(
        "Sensitivity: routing-table depth (greediest hops)",
        ["N", "1-hop only", "1+2-hop"],
        rows,
    )
    record_result("sensitivity_table_depth", data)
    for n in SIZES:
        assert data[n]["two_hop"] < data[n]["one_hop"]
    # The two-hop window buys a substantial chunk at scale.
    big = SIZES[-1]
    assert data[big]["two_hop"] < 0.8 * data[big]["one_hop"]


def test_coordinate_precision(benchmark, record_result, experiment_runner):
    """Quantized (hardware) coordinates versus full precision.

    Meaningful quantization requires 2^bits >= N (distinct grid points
    per node — the construction deduplicates on the grid); each bit
    width is therefore evaluated at the largest scale it supports:
    5 bits at N=24, 7 bits (the paper's table entry width) at N=96.
    The full-precision reference at each N is one shared grid point —
    the engine deduplicates it across variants.
    """
    cases = ((5, 24), (7, 96), (10, 96), (None, 96))

    def spec_for(bits, n):
        return BASE.with_overrides(
            name=f"sensitivity-coord-{bits}-{n}",
            nodes=[n],
            topology_seed=4,
            topology_params={"coord_bits": bits},
        )

    def run():
        specs = [spec_for(bits, n) for bits, n in cases]
        specs += [spec_for(None, n) for _bits, n in cases]
        sweep = experiment_runner.run(specs)
        print(f"\n[engine] coord precision: {sweep.summary()}")

        def hops(bits, n):
            return sweep.value(
                "mean_hops", nodes=n,
                topology_params=spec_for(bits, n).tasks()[0].topology_params,
            )

        return {
            str(bits): {
                "n": n,
                "hops": hops(bits, n),
                "reference": hops(None, n),
            }
            for bits, n in cases
        }

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [bits, row["n"], f"{row['hops']:.2f}", f"{row['reference']:.2f}"]
        for bits, row in data.items()
    ]
    print_table(
        "Sensitivity: coordinate quantization (greediest hops)",
        ["coord bits", "N", "hops", "full-precision"],
        rows,
    )
    record_result("sensitivity_coord_bits", data)
    # Hardware-width coordinates cost little over full precision.
    assert data["7"]["hops"] <= data["7"]["reference"] * 1.25
    assert data["5"]["hops"] <= data["5"]["reference"] * 1.25
    assert data["10"]["hops"] <= data["10"]["reference"] * 1.10


def test_balanced_coordinate_generation(
    benchmark, record_result, experiment_runner
):
    candidate_counts = (1, 4, 8, 16)
    specs = {
        k: BASE.with_overrides(
            name=f"sensitivity-balance-{k}",
            nodes=[128],
            topology_seed=5,
            topology_params={"candidates": k},
        )
        for k in candidate_counts
    }

    def run():
        sweep = experiment_runner.run(list(specs.values()))
        print(f"\n[engine] balance: {sweep.summary()}")
        data = {}
        for k in candidate_counts:
            payload = sweep.get(
                topology_params=specs[k].tasks()[0].topology_params
            )
            data[k] = {
                "balance": payload["min_balance"],
                "hops": payload["mean_hops"],
            }
        return data

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [c, f"{v['balance']:.3f}", f"{v['hops']:.2f}"]
        for c, v in data.items()
    ]
    print_table(
        "Sensitivity: BalancedCoordinateGen best-of-k (N=128)",
        ["candidates", "min gap / mean gap", "hops"],
        rows,
    )
    record_result(
        "sensitivity_balance", {str(k): v for k, v in data.items()}
    )
    # The balance criterion demonstrably evens out the rings.
    assert data[8]["balance"] > data[1]["balance"]
    assert data[16]["balance"] >= data[4]["balance"] * 0.8


def test_shortcut_ablation_downscaled(benchmark, record_result):
    """Shortcuts are what keeps a down-scaled network fast.

    Stays outside the experiment engine: the ablation mutates one
    topology in place (gating + shortcut deactivation), so its two
    measurements are not independent cacheable tasks.
    """

    def run():
        results = {}
        n = scale(96, 192)
        # With shortcuts: gate 20% and let the manager patch + fill ports.
        topo = StringFigureTopology(n, 4, seed=6, with_shortcuts=True)
        routing = GreediestRouting(topo)
        manager = ReconfigurationManager(topo, routing)
        victims = manager.gate_candidates(n // 5, min_spacing=2)
        manager.power_gate(*victims)
        with_shortcuts = greedy_path_stats(
            routing, sample_pairs=PAIRS, seed=3
        )
        results["with_shortcuts"] = with_shortcuts.mean
        # Ablation: keep only the ring patches (needed for delivery),
        # dropping the opportunistic port-filling shortcuts.
        for u, v in list(topo.active_shortcuts):
            cu, cv = manager._shortcut_span(u, v)
            if not manager._span_is_gated(cu, cv):
                topo.deactivate_shortcut(u, v)
        routing.rebuild()
        without = greedy_path_stats(routing, sample_pairs=PAIRS, seed=3)
        results["without_shortcuts"] = without.mean
        results["gated"] = len(victims)
        return results

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"Ablation: shortcuts on a 20%-gated network ({data['gated']} gated)",
        ["variant", "greediest hops"],
        [
            ["with shortcuts", f"{data['with_shortcuts']:.2f}"],
            ["without shortcuts", f"{data['without_shortcuts']:.2f}"],
        ],
    )
    record_result("sensitivity_shortcut_ablation", data)
    assert data["with_shortcuts"] < data["without_shortcuts"]
