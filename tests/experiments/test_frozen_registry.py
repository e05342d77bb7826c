"""The kind registry reproduces the engine surface recorded before it.

See :mod:`tests.experiments.frozen_registry` for what the fixture pins.
The only recorded difference allowed is the retired ``perf`` kind,
which ``repro trace --kind`` no longer offers.
"""

from __future__ import annotations

import json

import pytest

from tests.experiments import frozen_registry as frozen


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(frozen.FIXTURE.read_text())


def test_registry_declares_every_kind():
    from repro.experiments import TASK_KINDS
    from repro.experiments.kinds import KINDS

    assert TASK_KINDS == tuple(KINDS) == frozen.KINDS


def test_task_keys_unchanged(fixture):
    assert frozen.task_keys() == fixture["task_keys"]


def test_sweep_table_text_unchanged(fixture):
    assert frozen.sweep_table_text() == fixture["sweep_table"]


def test_parse_defaults_unchanged(fixture):
    # Round-trip through JSON so tuples compare like the recorded lists.
    current = json.loads(json.dumps(frozen.parse_defaults()))
    assert current == fixture["parse_defaults"]


def test_trace_kinds_lost_only_perf(fixture):
    recorded = [kind for kind in fixture["trace_kinds"] if kind != "perf"]
    assert frozen.choices("trace", "kind") == recorded


def test_sweep_kinds_are_the_registry(fixture):
    choices = frozen.choices("sweep", "kind")
    assert set(fixture["sweep_kinds"]) <= set(choices)
    assert choices == list(frozen.KINDS)
