"""Coordinator decision-path tests beyond the basics."""

import pytest

from repro import HardwareConfig, Workload
from repro.core import AdaptiveCoordinator, coordinator
from repro.core.buffer_friendly import thrash_thread_bound
from repro.simulator import Counters

HW = HardwareConfig()


def _wl(**kw):
    base = dict(k=8, m=4, block_bytes=1024, data_bytes_per_thread=64 * 1024)
    base.update(kw)
    return Workload(**base)


def test_wide_stripe_threshold_from_buffer_capacity():
    """For k=48 the effective threshold is the 8-thread buffer bound,
    not the testbed's 12 (§5.3's 8 x 48 streams)."""
    assert thrash_thread_bound(48, HW.pm) == 8
    below = AdaptiveCoordinator(_wl(k=48, nthreads=8), HW).policy
    above = AdaptiveCoordinator(_wl(k=48, nthreads=9), HW).policy
    assert below.hw_prefetch and not above.hw_prefetch
    assert above.xpline_granularity


def test_narrow_stripe_keeps_paper_threshold():
    """For k=8 the buffer bound (48 threads) exceeds 12, so the paper's
    observed 12-thread threshold governs."""
    at = AdaptiveCoordinator(_wl(k=8, nthreads=12), HW).policy
    above = AdaptiveCoordinator(_wl(k=8, nthreads=13), HW).policy
    assert at.hw_prefetch and not above.hw_prefetch


def test_tiny_stripe_no_room_for_bf_distance():
    """One 64 B line per block: the k+4 first-line distance can't fit."""
    wl = _wl(k=2, block_bytes=64, data_bytes_per_thread=1024)
    pol = AdaptiveCoordinator(wl, HW).policy
    assert pol.bf_first_distance is None
    assert pol.sw_distance is not None


def test_high_pressure_distance_never_exceeds_elements():
    wl = _wl(k=2, block_bytes=64, nthreads=32, data_bytes_per_thread=1024)
    pol = AdaptiveCoordinator(wl, HW).policy
    assert pol.sw_distance <= 2 * 1 - 1 or pol.sw_distance == 1


def test_set_baseline_overrides_first_sample():
    coord = AdaptiveCoordinator(_wl(), HW)
    cal = Counters()
    cal.loads, cal.load_stall_ns, cal.hwpf_useless = 1000, 15_000.0, 20
    coord.set_baseline(cal)
    assert coord.baseline_latency_ns == 15.0
    assert coord.baseline_useless_per_load == pytest.approx(0.02)
    # a hot first sample now registers as contention immediately
    hot = Counters()
    hot.loads, hot.load_stall_ns, hot.hwpf_useless = 1000, 40_000.0, 200
    coord.observe(hot)
    assert not coord.policy.hw_prefetch


def test_set_baseline_ignores_empty_sample():
    coord = AdaptiveCoordinator(_wl(), HW)
    coord.set_baseline(Counters())
    assert coord.baseline_latency_ns is None


def test_dynamic_switch_goes_full_high_pressure():
    """The contention switch applies the complete §4.3.3 strategy,
    not just the streamer toggle."""
    coord = AdaptiveCoordinator(_wl(nthreads=10), HW)
    cal = Counters()
    cal.loads, cal.load_stall_ns, cal.hwpf_useless = 1000, 10_000.0, 10
    coord.set_baseline(cal)
    hot = Counters()
    hot.loads, hot.load_stall_ns, hot.hwpf_useless = 1000, 30_000.0, 100
    coord.observe(hot)
    assert not coord.policy.hw_prefetch
    assert coord.policy.xpline_granularity


def test_relief_restores_exact_saved_policy():
    coord = AdaptiveCoordinator(_wl(nthreads=10), HW)
    original = coord.policy
    cal = Counters()
    cal.loads, cal.load_stall_ns, cal.hwpf_useless = 1000, 10_000.0, 10
    coord.set_baseline(cal)
    hot = Counters()
    hot.loads, hot.load_stall_ns, hot.hwpf_useless = 1000, 30_000.0, 100
    coord.observe(hot)
    cool = Counters()
    cool.loads, cool.load_stall_ns = 1000, 10_000.0
    coord.observe(cool)
    assert coord.policy == original
    assert coord.switches == 2


def test_initial_high_pressure_never_restores_to_low():
    """A job that *starts* high-pressure has no saved policy; relief
    alone must not flip it to an unvetted low-pressure policy."""
    coord = AdaptiveCoordinator(_wl(nthreads=16), HW)
    cool = Counters()
    cool.loads, cool.load_stall_ns = 1000, 5_000.0
    coord.observe(cool)
    coord.observe(cool)
    assert not coord.policy.hw_prefetch
    assert coord.switches == 0


def test_custom_thresholds_respected(monkeypatch):
    # The thresholds are module constants, read at decision time.
    monkeypatch.setattr(coordinator, "LATENCY_FACTOR", 5.0)
    monkeypatch.setattr(coordinator, "USELESS_GROWTH_FACTOR", 100.0)
    coord = AdaptiveCoordinator(_wl(), HW)
    cal = Counters()
    cal.loads, cal.load_stall_ns, cal.hwpf_useless = 1000, 10_000.0, 10
    coord.set_baseline(cal)
    warm = Counters()
    warm.loads, warm.load_stall_ns, warm.hwpf_useless = 1000, 30_000.0, 100
    coord.observe(warm)  # 3x latency < 5x threshold: no switch
    assert coord.policy.hw_prefetch


def test_policy_probe_backs_off_bf_when_uniform_wins():
    calls = []

    def policy_probe(policy):
        calls.append(policy)
        # pretend the uniform policy is faster (lower latency)
        return 1.0 if policy.bf_first_distance is None else 2.0

    coord = AdaptiveCoordinator(_wl(), HW, probe=lambda d: abs(d - 10),
                                policy_probe=policy_probe)
    assert coord.policy.bf_first_distance is None
    assert len(calls) == 2


def test_policy_probe_keeps_bf_when_split_wins():
    def policy_probe(policy):
        return 2.0 if policy.bf_first_distance is None else 1.0

    coord = AdaptiveCoordinator(_wl(), HW, probe=lambda d: abs(d - 10),
                                policy_probe=policy_probe)
    assert coord.policy.bf_first_distance is not None


def test_4kb_blocks_skip_bf_split():
    coord = AdaptiveCoordinator(_wl(block_bytes=4096), HW,
                                probe=lambda d: abs(d - 10))
    assert coord.policy.bf_first_distance is None
    assert coord.policy.hw_prefetch
