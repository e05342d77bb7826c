"""The host-speed reference: sampling, interval means and clean-up."""

from __future__ import annotations

import time

import hostref
import pytest


def reference_with(samples: list[tuple[float, float]]) -> hostref.Reference:
    ref = hostref.Reference(core=0, name="test")
    ref.samples = samples
    return ref


def test_chain_is_one_cycle_through_every_slot():
    links = hostref.chain(bits=10)
    seen, at = set(), 0
    for _ in range(len(links)):
        seen.add(at)
        at = links[at]
    assert at == 0 and len(seen) == len(links) == 1 << 10


def test_kernel_is_deterministic():
    links = hostref.chain(bits=12)
    assert hostref.kernel(hostref.BURST_OPS, links) == hostref.kernel(hostref.BURST_OPS, links)


def test_speed_is_the_mean_inside_a_long_interval():
    ref = reference_with([(0.0, 9.0), (1.0, 1.0), (3.0, 2.0), (5.0, 3.0), (9.0, 9.0)])
    assert ref.speed(0.5, 5.5) == pytest.approx(2.0)
    assert ref.factor(0.5, 5.5) == pytest.approx(2.0 / hostref.NOMINAL_OPS_PER_US)


def test_short_interval_is_widened_around_its_middle():
    ref = reference_with([(9.0, 1.0), (9.9, 2.0), (10.05, 3.0), (11.5, 5.0)])
    # [10.0, 10.1] widens to [9.05, 11.05]: the samples at 9.9 and 10.05.
    assert ref.speed(10.0, 10.1) == pytest.approx(2.5)


def test_no_sample_near_the_interval_is_an_error():
    ref = reference_with([(0.0, 1.0)])
    with pytest.raises(RuntimeError):
        ref.speed(10.0, 10.5)


def test_sampler_runs_on_its_core_and_is_reaped():
    core, _ = hostref.cores()
    with hostref.Reference(core, "test") as ref:
        time.sleep(3 * hostref.PERIOD_S)
    assert ref.proc.poll() is not None
    assert not ref.path.exists()
    assert len(ref.samples) >= 2
    assert all(speed > 0 for _, speed in ref.samples)
    assert ref.summary()["samples"] == len(ref.samples)
