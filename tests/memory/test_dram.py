"""DRAM open-page timing model."""

from __future__ import annotations

from repro.memory.dram import DramModel
from repro.network.config import DramTiming, NetworkConfig


class TestRowBuffer:
    def test_first_access_is_empty_activate(self):
        dram = DramModel()
        dram.access_cycles(0)
        assert dram.empties == 1
        assert dram.hits == 0

    def test_same_row_hits(self):
        dram = DramModel(row_bytes=2048)
        dram.access_cycles(0)
        dram.access_cycles(64)
        dram.access_cycles(1024)
        assert dram.hits == 2

    def test_row_conflict(self):
        dram = DramModel(num_banks=1, row_bytes=2048)
        dram.access_cycles(0)
        dram.access_cycles(2048)  # same bank, next row
        assert dram.conflicts == 1

    def test_bank_interleaving_avoids_conflicts(self):
        dram = DramModel(num_banks=8, row_bytes=2048)
        dram.access_cycles(0)
        dram.access_cycles(2048)  # different bank
        assert dram.conflicts == 0

    def test_latency_ordering(self):
        cfg = NetworkConfig()
        dram = DramModel(cfg, num_banks=1, row_bytes=2048)
        empty = dram.access_cycles(0)
        hit = dram.access_cycles(64)
        miss = dram.access_cycles(2048)
        assert hit < empty < miss

    def test_cycles_follow_the_configured_timing(self):
        cfg = NetworkConfig(clock_ghz=1.0, dram=DramTiming(t_rcd=13.5, t_cl=7.2, t_rp=15.1))
        dram = DramModel(cfg, num_banks=1, row_bytes=2048)
        cycles = cfg.cycles_from_ns
        assert dram.access_cycles(0) == cycles(cfg.dram.row_empty_ns()) == 21
        assert dram.access_cycles(64) == cycles(cfg.dram.row_hit_ns()) == 8
        assert dram.access_cycles(2048) == cycles(cfg.dram.row_miss_ns()) == 36

    def test_hit_rate(self):
        dram = DramModel(row_bytes=2048)
        assert dram.row_hit_rate == 0.0
        dram.access_cycles(0)
        dram.access_cycles(64)
        assert dram.row_hit_rate == 0.5

    def test_invalid_banks(self):
        import pytest

        with pytest.raises(ValueError):
            DramModel(num_banks=0)
