"""Every directory-backed request user reproduces its recorded payload.

See :mod:`tests.memory.frozen_requests` for what the fixture pins.
"""

from __future__ import annotations

import json

import pytest

from tests.memory import frozen_requests as frozen

RECORDED = json.loads(frozen.FIXTURE.read_text())


def test_fixture_covers_every_scenario():
    assert sorted(RECORDED) == sorted(frozen.SCENARIOS)


@pytest.mark.parametrize("name", sorted(frozen.SCENARIOS))
def test_payload_digest_unchanged(name):
    assert frozen.capture(name) == RECORDED[name]
