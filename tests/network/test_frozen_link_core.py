"""The link-event core reproduces its recorded event counts and digests.

See :mod:`tests.network.frozen_link_core` for what the fixture pins and
how it was recorded.  The churn and link-fault runs must also still
exercise what they pin: elided link events, a drop and a retransmit.
"""

from __future__ import annotations

import json

import pytest

from tests.network import frozen_link_core as frozen
from tests.network.golden_grid import GRID, entry_key

RECORDED = json.loads(frozen.FIXTURE.read_text())


def test_fixture_covers_every_run():
    assert sorted(RECORDED) == sorted(
        [frozen.grid_name(entry) for entry in GRID] + ["churn", "link_faults"]
    )


@pytest.mark.slow
@pytest.mark.parametrize("entry", GRID, ids=[entry_key(*entry[:5]) for entry in GRID])
def test_grid_event_count_matches_frozen(entry):
    sim = frozen.grid_run(*entry)
    assert frozen.grid_record(sim) == RECORDED[frozen.grid_name(entry)]


def test_churn_matches_frozen():
    sim = frozen.churn_run()
    assert frozen.churn_record(sim) == RECORDED["churn"]
    assert sim.link_events_elided > 0


def test_link_faults_match_frozen():
    sim, layer = frozen.fault_run()
    assert frozen.fault_record(sim, layer) == RECORDED["link_faults"]
    assert sim.link_events_elided > 0
    assert sim.stats.dropped >= 1
    assert layer.retransmits >= 1
