"""Property-based tests: simulator invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import HillClimber, eq1_max_distance, static_shuffle_mapping
from repro.core.operator import verify_shuffle_defeats_streamer
from repro.simulator import (
    Counters, HardwareConfig, PMBackend, StreamPrefetcher, simulate,
)
from repro.simulator.params import PMConfig, PrefetcherConfig
from repro.trace.layout import StripeLayout
from repro.trace.ops import LOAD, COMPUTE, Trace

HW = HardwareConfig()


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                max_size=200))
@settings(max_examples=30, deadline=None)
def test_prefetcher_never_prefetches_backwards_or_past_page(lines):
    """Issued prefetch addresses are always ahead of the trigger and
    inside its 4 KB page."""
    pf = StreamPrefetcher(PrefetcherConfig(), Counters())
    for line in lines:
        addr = line * 64
        for target in pf.on_access(addr):
            assert target > addr
            assert target // 4096 == addr // 4096


@given(st.lists(st.integers(min_value=0, max_value=4096), min_size=1,
                max_size=300),
       st.integers(min_value=1, max_value=32))
@settings(max_examples=30, deadline=None)
def test_readbuffer_never_exceeds_capacity(addrs, cap):
    c = Counters()
    # 1 KB XPLines, so a ``cap`` KB buffer holds ``cap`` of them.
    pm = PMBackend(PMConfig(read_buffer_kb=cap, xpline_bytes=1024), c)
    for a in addrs:
        pm.fill_line(a * 64, 0.0, True)
        assert len(pm.read_buffer._entries) <= cap
    # conservation: every miss either filled or was already resident
    assert c.buffer_hits + c.buffer_misses == len(addrs)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 255)),
                min_size=1, max_size=120))
@settings(max_examples=25, deadline=None)
def test_engine_clock_monotonic_and_counters_consistent(ops_spec):
    """Simulated time advances; traffic counters account every load."""
    ops = []
    for kind, v in ops_spec:
        if kind == 0:
            ops.append((LOAD, v * 64))
        else:
            ops.append((COMPUTE, float(v)))
    res = simulate(Trace(ops=ops), HW)
    finish, c = res.makespan_ns, res.counters
    assert finish >= 0
    nloads = sum(1 for op, _ in ops if op == LOAD)
    assert c.loads == nloads
    assert c.load_cache_hits + c.load_late_prefetch + c.load_misses \
        + c.hwpf_useful - c.load_cache_hits <= c.loads + c.hwpf_issued
    # every app byte seen at the controller at least when missed
    assert c.app_read_bytes == 64 * nloads
    assert c.ctrl_read_bytes % 64 == 0
    assert c.media_read_bytes % 256 == 0
    # the buffer can't hit more often than there are loads+prefetches
    assert c.buffer_hits + c.buffer_misses <= nloads + c.hwpf_issued + c.swpf_issued


@given(st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=160),
       st.integers(min_value=1, max_value=8))
def test_eq1_cap_respects_buffer_budget(nthreads, k, m):
    pm = PMConfig()
    d = eq1_max_distance(nthreads, k, m, pm)
    assert d >= 1
    if d > 1:
        used = nthreads * k * pm.xpline_bytes * -(-d // k)
        assert used <= pm.read_buffer_kb * 1024 or d == k * 0 + 1


@given(st.integers(min_value=5, max_value=512))
def test_shuffle_mapping_is_permutation_and_non_sequential(lines):
    order = static_shuffle_mapping(lines)
    assert sorted(order) == list(range(lines))
    assert verify_shuffle_defeats_streamer(order)


@given(st.integers(min_value=1, max_value=100),
       st.integers(min_value=0, max_value=200))
@settings(max_examples=40)
def test_hillclimber_finds_global_minimum_of_convex(target, start):
    hc = HillClimber(lambda x: abs(x - target), lower=1, upper=200)
    best, val = hc.search(max(1, start))
    assert best == max(1, min(target, 200))
    assert val == abs(best - target)


@given(st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=8),
       st.sampled_from([256, 512, 1024, 4096, 5120]),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=40)
def test_layout_blocks_never_overlap(k, m, bs, stripes):
    lay = StripeLayout(k, m, bs)
    regions = []
    for s in range(stripes + 1):
        for b in range(k + m):
            base = lay.block_addr(s, b)
            regions.append((base, base + bs))
    regions.sort()
    for (s1, e1), (s2, _) in zip(regions, regions[1:]):
        assert e1 <= s2
