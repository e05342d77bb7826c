"""Every experiment kind reproduces its recorded task payloads.

See :mod:`tests.experiments.frozen_payloads` for what the fixture pins.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.kinds import KINDS
from tests.experiments import frozen_payloads as frozen

RECORDED = json.loads(frozen.FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(RECORDED) == sorted(frozen.CASES)


def test_every_kind_has_a_minimal_and_a_full_case():
    for kind in KINDS:
        forms = {name.rsplit("/", 1)[1] for name in frozen.CASES if name.startswith(f"{kind}/")}
        assert {"minimal", "full"} <= forms, kind


@pytest.mark.parametrize("name", sorted(frozen.CASES))
def test_payload_digest_unchanged(name):
    assert frozen.capture(name) == RECORDED[name]
