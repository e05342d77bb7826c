"""The observability layer reproduces its recorded reports.

See :mod:`tests.obs.frozen_obs` for what the fixture pins and how it
was recorded.  The runs must also still exercise what they pin: the
hold branches (parks and drops), multi-channel wires, and packets in
flight across a mid-run install.
"""

from __future__ import annotations

import json

import pytest

from tests.obs import frozen_obs as frozen

RECORDED = json.loads(frozen.FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(RECORDED) == sorted(frozen.CASES)


@pytest.mark.parametrize("name", sorted(frozen.CASES))
def test_case_matches_frozen(name):
    assert frozen.record_case(name) == RECORDED[name]


def test_cases_exercise_what_they_pin():
    summaries = {name: entry["anatomy"]["summary"] for name, entry in RECORDED.items()}
    hops = {name: entry["probes"]["hops"] for name, entry in RECORDED.items()}
    for name in ("churn_parks_anatomy", "faults_drops_anatomy"):
        assert summaries[name]["component_totals"]["requeue"] > 0, name
    assert hops["faults_drops_full"]["drop"] > 0
    assert summaries["mid_run_install"]["preinstall_skips"] > 0
    assert summaries["sf64_qos_incast"]["component_totals"]["arbitration"] > 0
    assert RECORDED["odm36_qos"]["tracer"]["records"] > 0
