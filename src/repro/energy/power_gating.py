"""Memory-network power management (paper §III-C and §VI).

The power manager sits on top of the reconfiguration manager and adds
the paper's operational constraints:

* link/router **sleep latency** of 680 ns and **wake-up latency** of
  5 µs (conservative values from prior memory-network work);
* a **reconfiguration granularity** — the minimum allowed interval
  between reconfigurations — of 100 µs, so reconfiguration overheads
  cannot dominate;
* victim selection through the reconfiguration manager's
  cleanly-gateable analysis, so the space-0 ring patching invariant
  holds and routing remains loop-free and delivery-guaranteed.

Gating a fraction of the network reduces dynamic energy (shorter paths
on the smaller network and fewer powered links) at some performance
cost; Figure 9(b) tracks the resulting EDP, which this module's
accounting feeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.reconfig import ReconfigEvent, ReconfigurationManager
from repro.network.config import NetworkConfig
from repro.ops import VICTIM_SPACING

__all__ = ["PowerGatingPlan", "PowerManager"]

SLEEP_LATENCY_NS = 680.0
WAKE_LATENCY_NS = 5_000.0
RECONFIG_GRANULARITY_NS = 100_000.0


@dataclass
class PowerGatingPlan:
    """Outcome of one power-management action."""

    gated: list[int] = field(default_factory=list)
    woken: list[int] = field(default_factory=list)
    events: list[ReconfigEvent] = field(default_factory=list)
    overhead_ns: float = 0.0


class PowerManager:
    """Drives dynamic network scale changes under timing constraints."""

    def __init__(
        self,
        manager: ReconfigurationManager,
        config: NetworkConfig | None = None,
        sleep_ns: float = SLEEP_LATENCY_NS,
        wake_ns: float = WAKE_LATENCY_NS,
        granularity_ns: float = RECONFIG_GRANULARITY_NS,
    ) -> None:
        self.manager = manager
        self.config = config or NetworkConfig()
        self.sleep_ns = sleep_ns
        self.wake_ns = wake_ns
        self.granularity_ns = granularity_ns
        self._last_reconfig_ns: float | None = None
        self.gated: list[int] = []

    # -- constraints ------------------------------------------------------------

    def can_reconfigure(self, now_ns: float) -> bool:
        """Whether the 100 µs reconfiguration granularity has elapsed."""
        if self._last_reconfig_ns is None:
            return True
        return now_ns - self._last_reconfig_ns >= self.granularity_ns

    def _mark(self, now_ns: float) -> None:
        self._last_reconfig_ns = now_ns

    @property
    def last_reconfig_ns(self) -> float | None:
        """When the most recent reconfiguration completed (ns), if any."""
        return self._last_reconfig_ns

    def note_reconfiguration(self, now_ns: float) -> None:
        """Record an externally executed reconfiguration (live/online path).

        The :class:`~repro.network.elastic.LiveReconfigurator` performs
        the topology changes itself inside the event loop; it calls
        this so the granularity constraint still covers those events.
        """
        self._mark(now_ns)

    # -- actions ------------------------------------------------------------------

    def gate_fraction(self, fraction: float, now_ns: float = 0.0) -> PowerGatingPlan:
        """Power off ~*fraction* of the active nodes (cleanly gateable).

        Victims come from the reconfiguration manager's well-spaced
        candidate selection, ``VICTIM_SPACING`` ring slots apart; the
        plan records how many were actually gateable (dense fractions
        may fall short of the request — the plan's ``gated`` list is
        authoritative).
        """
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"fraction must be in [0, 1), got {fraction}")
        if not self.can_reconfigure(now_ns):
            raise RuntimeError(
                f"reconfiguration granularity violated at t={now_ns} ns"
            )
        plan = PowerGatingPlan()
        active = len(self.manager.topology.active_nodes)
        want = int(active * fraction)
        if want == 0:
            return plan
        victims = self.manager.gate_candidates(want, min_spacing=VICTIM_SPACING)
        plan.events = self.manager.power_gate(*victims)
        plan.gated = victims
        self.gated.extend(victims)
        plan.overhead_ns = self.sleep_ns if plan.gated else 0.0
        if plan.gated:
            self._mark(now_ns)
        return plan

    def wake_all(self, now_ns: float = 0.0) -> PowerGatingPlan:
        """Bring every gated node back (pays the 5 µs wake latency)."""
        if not self.can_reconfigure(now_ns):
            raise RuntimeError(
                f"reconfiguration granularity violated at t={now_ns} ns"
            )
        plan = PowerGatingPlan(woken=self.gated[::-1])
        plan.events = self.manager.power_on(*plan.woken)
        self.gated.clear()
        plan.overhead_ns = self.wake_ns if plan.woken else 0.0
        if plan.woken:
            self._mark(now_ns)
        return plan

    # -- accounting -----------------------------------------------------------------

    @property
    def active_fraction(self) -> float:
        """Fraction of the full network currently powered."""
        topo = self.manager.topology
        return len(topo.active_nodes) / topo.num_nodes
