"""Unit tests for DIALGA's core components (§4)."""

import numpy as np
import pytest

from repro import DialgaConfig, DialgaEncoder, HardwareConfig, Workload, ISAL
from repro.core import (
    AdaptiveCoordinator,
    CoordinatorConfig,
    HillClimber,
    Policy,
    bf_distances,
    build_prefetch_pointers,
    eq1_max_distance,
    static_shuffle_mapping,
    thrash_thread_bound,
)
from repro.core.operator import verify_shuffle_defeats_streamer
from repro.simulator import Counters
from repro.simulator.params import PMConfig
from repro.trace.layout import StripeLayout

HW = HardwareConfig()


# -- Policy ---------------------------------------------------------------

def test_policy_to_variant_maps_shuffle():
    assert not Policy(hw_prefetch=True).to_variant().shuffle
    assert Policy(hw_prefetch=False).to_variant().shuffle


def test_policy_to_variant_distances():
    v = Policy(sw_distance=12, bf_first_distance=24,
               xpline_granularity=True).to_variant()
    assert v.sw_prefetch_distance == 12
    assert v.bf_first_line_distance == 24
    assert v.xpline_granularity


def test_policy_describe():
    s = Policy(hw_prefetch=False, sw_distance=8, xpline_granularity=True).describe()
    assert "shuffle" in s and "xpline" in s


# -- HillClimber -------------------------------------------------------------

def test_hillclimb_finds_parabola_minimum():
    hc = HillClimber(lambda x: (x - 37) ** 2, lower=1, upper=100)
    best, val = hc.search(10)
    assert best == 37 and val == 0


def test_hillclimb_respects_bounds():
    hc = HillClimber(lambda x: -x, lower=1, upper=50)
    best, _ = hc.search(45)
    assert best == 50


def test_hillclimb_memoizes():
    calls = []
    hc = HillClimber(lambda x: calls.append(x) or abs(x - 5), lower=1, upper=20)
    hc.search(5)
    assert len(calls) == len(set(calls))


def test_hillclimb_stops_at_local_optimum():
    # two basins: x=10 (local) and x=40 (global); start near 10 with a
    # small neighborhood -> stays local (that's the algorithm's nature)
    def f(x):
        return min(abs(x - 10), abs(x - 40) - 5)
    hc = HillClimber(f, lower=1, upper=60, neighborhood=4)
    best, _ = hc.search(9)
    assert abs(best - 10) <= 2


def test_hillclimb_bad_bounds():
    with pytest.raises(ValueError):
        HillClimber(lambda x: x, lower=5, upper=1)


# -- buffer-friendly math ------------------------------------------------------

def test_bf_distances_default_paper_init():
    d1, d = bf_distances(24)
    assert (d1, d) == (28, 24)


def test_bf_distances_scaled_from_base():
    d1, d = bf_distances(24, base=30)
    assert d1 == 60 and d == 30


def test_eq1_cap_paper_example():
    """Paper §4.3.3: on the 96 KB / 6-channel testbed, thrashing starts
    beyond 12 threads (RS(28,24), hardware prefetching on)."""
    pm = PMConfig()
    # At 12 threads with k=24 the cap is still positive...
    assert eq1_max_distance(12, 24, 4, pm) >= 24
    # ...but at 16 threads the budget drops to a single XPLine row.
    assert eq1_max_distance(16, 24, 4, pm) == 24


def test_eq1_monotonic_in_threads():
    pm = PMConfig()
    caps = [eq1_max_distance(nt, 24, 4, pm) for nt in (1, 4, 8, 16, 32)]
    assert caps == sorted(caps, reverse=True)
    assert caps[-1] >= 1


def test_eq1_validation():
    with pytest.raises(ValueError):
        eq1_max_distance(0, 24, 4, PMConfig())


def test_thrash_thread_bound_wide_stripe():
    """§5.3: 96 KB buffer sustains 8 x 48 streams."""
    assert thrash_thread_bound(48, PMConfig()) == 8
    assert thrash_thread_bound(24, PMConfig()) == 16


# -- operator -------------------------------------------------------------------

def test_static_shuffle_mapping_is_permutation():
    order = static_shuffle_mapping(64)
    assert sorted(order) == list(range(64))


def test_static_shuffle_defeats_streamer():
    assert verify_shuffle_defeats_streamer(static_shuffle_mapping(64))
    assert verify_shuffle_defeats_streamer(static_shuffle_mapping(16))


def test_shuffle_mapping_static():
    assert static_shuffle_mapping(32) == static_shuffle_mapping(32)


def test_prefetch_pointer_table_uniform():
    lay = StripeLayout(4, 2, 1024)
    order = list(range(16))
    d = 4
    table = build_prefetch_pointers(lay, 0, order, d)
    total = 16 * 4
    assert len(table) == total
    # tail has no pointers
    assert all(t == [] for t in table[total - d:])
    # head pointers target d elements ahead
    assert table[0] == [lay.line_addr(0, 0, 1)]


def test_prefetch_pointer_table_bf_split():
    lay = StripeLayout(4, 2, 1024)
    order = list(range(16))
    table = build_prefetch_pointers(lay, 0, order, d=4, d_first=8)
    flat = [t for ts in table for t in ts]
    firsts = [t for t in flat if (t // 64) % 4 == 0]
    rest = [t for t in flat if (t // 64) % 4 != 0]
    assert firsts and rest
    # Every non-leading line of rows 1..15 must still be covered.
    covered = set(flat)
    for n in range(4, 16 * 4):
        rp, j = divmod(n, 4)
        addr = lay.line_addr(0, j, rp)
        if (addr // 64) % 4 != 0 or rp >= 2:
            assert addr in covered or n >= 16 * 4 - 8


def test_prefetch_pointer_table_matches_trace_generator():
    """The pointer table and the emitted SWPF ops must agree 1:1."""
    from repro.simulator.params import CPUConfig
    from repro.trace import SWPF, Workload, isal_trace, IsalVariant
    wl = Workload(k=4, m=2, block_bytes=1024, data_bytes_per_thread=4096)
    variant = IsalVariant(sw_prefetch_distance=4, bf_first_line_distance=8)
    trace = isal_trace(wl, CPUConfig(), variant)
    emitted = [a for op, a in trace.ops if op == SWPF]
    lay = StripeLayout(4, 2, 1024)
    table = build_prefetch_pointers(lay, 0, list(range(16)), d=4, d_first=8)
    expected = [t for ts in table for t in ts]
    assert emitted == expected


# -- coordinator -------------------------------------------------------------------

def _wl(**kw):
    base = dict(k=8, m=4, block_bytes=1024, data_bytes_per_thread=128 * 1024)
    base.update(kw)
    return Workload(**base)


def test_initial_policy_low_pressure():
    c = AdaptiveCoordinator(_wl(), HW)
    p = c.policy
    assert p.hw_prefetch
    assert p.sw_distance == 8  # d = k without a probe
    assert p.bf_first_distance == 12  # k + 4 (paper init)
    assert not p.xpline_granularity


def test_initial_policy_high_pressure():
    c = AdaptiveCoordinator(_wl(nthreads=16), HW)
    p = c.policy
    assert not p.hw_prefetch          # shuffle off-switch
    assert p.xpline_granularity       # 256 B loop expansion
    assert p.sw_distance is not None
    assert p.sw_distance <= eq1_max_distance(16, 8, 4, HW.pm)


def test_initial_policy_wide_stripe():
    c = AdaptiveCoordinator(_wl(k=48), HW)
    p = c.policy
    assert p.hw_prefetch  # no management needed: streamer self-disables
    assert p.sw_distance is not None


def test_initial_policy_thread_threshold_boundary():
    cfg = CoordinatorConfig(thread_threshold=12)
    at = AdaptiveCoordinator(_wl(nthreads=12), HW, config=cfg).policy
    above = AdaptiveCoordinator(_wl(nthreads=13), HW, config=cfg).policy
    assert at.hw_prefetch and not above.hw_prefetch


def test_coordinator_disables_hw_on_contention():
    c = AdaptiveCoordinator(_wl(), HW)
    base = Counters()
    base.loads, base.load_stall_ns = 1000, 20_000.0   # 20 ns baseline
    c.observe(base)
    assert c.policy.hw_prefetch
    hot = Counters()
    hot.loads, hot.load_stall_ns = 1000, 40_000.0     # 2x the baseline
    hot.hwpf_useless = 100
    c.observe(hot)           # establishes useless baseline
    hotter = Counters()
    hotter.loads, hotter.load_stall_ns = 1000, 40_000.0
    hotter.hwpf_useless = 300  # 3x growth > 150%
    c.observe(hotter)
    assert not c.policy.hw_prefetch
    assert c.switches == 1


def test_coordinator_reenables_on_relief():
    c = AdaptiveCoordinator(_wl(), HW)
    for loads, stall, useless in ((1000, 20_000.0, 100),
                                  (1000, 42_000.0, 100),
                                  (1000, 42_000.0, 260)):
        s = Counters()
        s.loads, s.load_stall_ns, s.hwpf_useless = loads, stall, useless
        c.observe(s)
    assert not c.policy.hw_prefetch
    cool = Counters()
    cool.loads, cool.load_stall_ns = 1000, 20_000.0
    c.observe(cool)
    assert c.policy.hw_prefetch


def test_coordinator_ignores_empty_sample():
    c = AdaptiveCoordinator(_wl(), HW)
    p = c.observe(Counters())
    assert p == c.policy


def test_coordinator_fluctuation_triggers_research():
    probe_calls = []

    def probe(d):
        probe_calls.append(d)
        return abs(d - 20)

    c = AdaptiveCoordinator(_wl(), HW, probe=probe)
    n_init = len(probe_calls)
    assert n_init > 0  # initial search ran
    s = Counters()
    s.loads, s.load_stall_ns = 1000, 20_000.0
    c.observe(s, throughput_gbps=2.0)
    c.observe(s, throughput_gbps=2.01)   # small swing: no re-search
    assert len(probe_calls) == n_init
    c.observe(s, throughput_gbps=3.0)    # >10% swing: re-search
    assert len(probe_calls) >= n_init


# -- DialgaEncoder end-to-end ---------------------------------------------------

def test_dialga_geometry_mismatch():
    with pytest.raises(ValueError, match="geometry"):
        DialgaEncoder(8, 4, config=DialgaConfig(use_probe=False)).run(_wl(k=6), HW)


def test_dialga_policy_log_populated():
    enc = DialgaEncoder(8, 4, config=DialgaConfig(use_probe=False, chunks=4))
    enc.run(_wl(), HW)
    assert len(enc.policy_log) >= 4


def test_dialga_policy_override():
    pol = Policy(hw_prefetch=False, sw_distance=16)
    enc = DialgaEncoder(8, 4, config=DialgaConfig(policy_override=pol))
    enc.run(_wl(), HW)
    assert enc.policy_log == [pol]


def test_dialga_beats_isal_on_pm():
    wl = _wl(data_bytes_per_thread=96 * 1024)
    d = DialgaEncoder(8, 4, config=DialgaConfig(use_probe=False)).run(wl, HW)
    i = ISAL(8, 4).run(wl, HW)
    assert d.throughput_gbps > i.throughput_gbps


def test_dialga_nonadaptive_single_policy():
    enc = DialgaEncoder(8, 4, config=DialgaConfig(adaptive=False, use_probe=False))
    enc.run(_wl(), HW)
    assert len(enc.policy_log) == 1


def test_dialga_high_pressure_uses_xpline():
    enc = DialgaEncoder(24, 4, config=DialgaConfig(use_probe=False, chunks=2))
    wl = Workload(k=24, m=4, block_bytes=1024, nthreads=14,
                  data_bytes_per_thread=32 * 1024)
    enc.run(wl, HW)
    assert enc.policy_log[0].xpline_granularity
    assert not enc.policy_log[0].hw_prefetch
