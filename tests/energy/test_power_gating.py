"""Power manager: gating plans, latencies, granularity."""

from __future__ import annotations

import pytest

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import GreediestRouting
from repro.core.topology import StringFigureTopology
from repro.energy.power_gating import PowerManager


@pytest.fixture
def manager():
    topo = StringFigureTopology(64, 4, seed=7)
    routing = GreediestRouting(topo)
    return PowerManager(ReconfigurationManager(topo, routing))


class TestGating:
    def test_gate_fraction(self, manager):
        plan = manager.gate_fraction(0.1, now_ns=0)
        assert len(plan.gated) >= 4  # ~6 of 64, allow gateability slack
        assert manager.active_fraction < 1.0

    def test_zero_fraction_noop(self, manager):
        plan = manager.gate_fraction(0.0)
        assert plan.gated == []
        assert manager.active_fraction == 1.0

    def test_invalid_fraction(self, manager):
        with pytest.raises(ValueError):
            manager.gate_fraction(1.0)
        with pytest.raises(ValueError):
            manager.gate_fraction(-0.1)

    def test_sleep_overhead_recorded(self, manager):
        plan = manager.gate_fraction(0.1, now_ns=0)
        assert plan.overhead_ns == 680.0

    def test_wake_restores_everything(self, manager):
        manager.gate_fraction(0.2, now_ns=0)
        plan = manager.wake_all(now_ns=200_000)
        assert manager.active_fraction == 1.0
        assert plan.overhead_ns == 5000.0
        assert manager.gated == []

    def test_network_usable_while_gated(self, manager):
        manager.gate_fraction(0.2, now_ns=0)
        assert manager.manager.validate_connectivity()


class TestGranularity:
    def test_back_to_back_rejected(self, manager):
        manager.gate_fraction(0.1, now_ns=0)
        with pytest.raises(RuntimeError):
            manager.gate_fraction(0.1, now_ns=50_000)  # < 100 us later

    def test_after_granularity_allowed(self, manager):
        manager.gate_fraction(0.1, now_ns=0)
        manager.wake_all(now_ns=150_000)  # >= 100 us later: fine

    def test_can_reconfigure_initially(self, manager):
        assert manager.can_reconfigure(0.0)
