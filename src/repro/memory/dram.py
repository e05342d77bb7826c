"""Per-node DRAM timing model (paper Table I).

Each 3D-stacked memory node exposes several banks with open-page row
buffers.  An access is a row hit (CAS only), a row conflict (precharge
+ activate + CAS) or an empty-bank activate.  Timings come from
:class:`repro.network.config.DramTiming` (tRCD=12 ns, tCL=6 ns,
tRP=14 ns, tRAS=33 ns) and are converted to network-clock cycles.
"""

from __future__ import annotations

from repro.network.config import NetworkConfig

__all__ = ["DramModel"]


class DramModel:
    """Open-page DRAM with per-bank row-buffer state for one node."""

    def __init__(
        self,
        config: NetworkConfig | None = None,
        num_banks: int = 8,
        row_bytes: int = 2048,
    ) -> None:
        if num_banks < 1:
            raise ValueError(f"num_banks must be >= 1, got {num_banks}")
        self.config = config or NetworkConfig()
        self.num_banks = num_banks
        self.row_bytes = row_bytes
        self._open_rows: dict[int, int] = {}
        # Config and timing are frozen: convert each latency once.
        timing = self.config.dram
        self._hit_cycles = self.config.cycles_from_ns(timing.row_hit_ns())
        self._empty_cycles = self.config.cycles_from_ns(timing.row_empty_ns())
        self._miss_cycles = self.config.cycles_from_ns(timing.row_miss_ns())
        self.hits = 0
        self.conflicts = 0
        self.empties = 0

    def _locate(self, local_addr: int) -> tuple[int, int]:
        row = local_addr // self.row_bytes
        bank = row % self.num_banks
        return bank, row

    def bank_of(self, local_addr: int) -> int:
        """Bank serving *local_addr* (for controller-side occupancy)."""
        return self._locate(local_addr)[0]

    def access_cycles(self, local_addr: int) -> int:
        """Service latency (network cycles) of one access; updates state."""
        bank, row = self._locate(local_addr)
        open_row = self._open_rows.get(bank)
        self._open_rows[bank] = row
        if open_row == row:
            self.hits += 1
            return self._hit_cycles
        if open_row is None:
            self.empties += 1
            return self._empty_cycles
        self.conflicts += 1
        return self._miss_cycles

    @property
    def accesses(self) -> int:
        return self.hits + self.conflicts + self.empties

    @property
    def row_hit_rate(self) -> float:
        """Fraction of accesses served from an open row buffer."""
        total = self.accesses
        return self.hits / total if total else 0.0
