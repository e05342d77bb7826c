"""Table I configuration constants and conversions."""

from __future__ import annotations

import pytest

from repro.network.config import DramTiming, NetworkConfig


class TestClock:
    def test_cycle_is_3_2_ns(self):
        assert NetworkConfig().cycle_ns == pytest.approx(3.2)

    def test_serdes_one_cycle(self):
        """3.2 ns SerDes per hop = exactly one network cycle."""
        cfg = NetworkConfig()
        assert cfg.serdes_cycles == 1
        assert cfg.cycles_from_ns(3.2) == 1

    def test_cycles_round_up(self):
        cfg = NetworkConfig()
        assert cfg.cycles_from_ns(3.3) == 2
        assert cfg.cycles_from_ns(6.4) == 2


class TestPacketSizing:
    def test_cacheline_fits_one_flit(self):
        """64 B + header fit in one 192 B HMC-width flit."""
        assert NetworkConfig().packet_flits(64) == 1

    def test_large_payloads_split(self):
        cfg = NetworkConfig()
        assert cfg.packet_flits(400) == 3  # 416 B over 192 B flits

    def test_minimum_one_flit(self):
        assert NetworkConfig().packet_flits(0) == 1

    def test_packet_bits_include_header(self):
        cfg = NetworkConfig()
        assert cfg.packet_bits(64) == 8 * (64 + 16)


class TestDramTiming:
    def test_table1_values(self):
        timing = DramTiming()
        assert timing.t_rcd == 12.0
        assert timing.t_cl == 6.0
        assert timing.t_rp == 14.0
        assert timing.t_ras == 33.0

    def test_latency_ordering(self):
        timing = DramTiming()
        assert timing.row_hit_ns() < timing.row_empty_ns() < timing.row_miss_ns()

    def test_dram_cycles(self):
        cfg = NetworkConfig()
        assert cfg.dram_access_cycles(row_hit=True) == cfg.cycles_from_ns(6.0)
        assert cfg.dram_access_cycles(row_hit=False) == cfg.cycles_from_ns(32.0)


class TestEnergyConstants:
    def test_table1_energy(self):
        cfg = NetworkConfig()
        assert cfg.network_pj_per_bit_hop == 5.0
        assert cfg.dram_pj_per_bit == 12.0


class TestFrozen:
    def test_config_immutable(self):
        cfg = NetworkConfig()
        with pytest.raises(AttributeError):
            cfg.buffer_packets = 99


class TestNoUnreadFields:
    def test_num_vcs_is_not_a_config_field(self):
        """The VC count comes from the routing policy, so the config
        must not offer a ``num_vcs`` that nothing reads."""
        with pytest.raises(TypeError):
            NetworkConfig(num_vcs=1)
