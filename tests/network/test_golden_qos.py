"""QoS arbitration golden digests: class-aware runs must never drift.

``golden_qos.json`` pins the class-aware send path the classless
golden grid cannot see: strict-priority bands, DRR within a band and
per-class credit reservations with class-attributed deadlock loans.
Each point is an interference run under the default class table, or,
for two points (with the latency anatomy and bare), a table whose
latency and bulk classes share a priority band so that DRR weighting
decides between them; the digest covers every SimStats field, each
class's latency samples (in delivery order) and, for the anatomy
points, the per-class component totals, which split the head-ready
wait by the class on the wire.
"""

from __future__ import annotations

import json

import pytest

from tests.network.golden_grid import (
    QOS_FIXTURE,
    QOS_GRID,
    assert_stats_match,
    qos_digest,
    qos_key,
    run_qos_point,
)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(QOS_FIXTURE.read_text())


def test_fixture_covers_grid(golden):
    assert set(golden) == {qos_key(*entry[:4], *entry[5:]) for entry in QOS_GRID}


@pytest.mark.parametrize(
    "design,nodes,mode,rate,cfg,anatomy,shared_band",
    QOS_GRID,
    ids=[qos_key(*entry[:4], *entry[5:]) for entry in QOS_GRID],
)
def test_qos_digest_matches_golden(golden, design, nodes, mode, rate, cfg,
                                   anatomy, shared_band):
    result = run_qos_point(design, nodes, mode, rate, cfg, anatomy,
                           shared_band)
    expected = golden[qos_key(design, nodes, mode, rate, anatomy, shared_band)]
    digest = qos_digest(result)
    assert digest["class_samples"] == expected["class_samples"]
    assert digest["anatomy_components"] == expected["anatomy_components"]
    assert_stats_match(digest["stats"], expected["stats"])
    # Points that recover from credit stalls must keep doing so, or the
    # stall arming and class-debt paths would drop out of the pin.
    if expected["stats"]["deadlock_recoveries"]:
        assert result.stats.deadlock_recoveries > 0
    if anatomy:
        assert result.anatomy.conserved()
