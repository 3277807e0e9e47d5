"""Unit tests for simulator components: cache, prefetcher, read buffer."""

import pytest

from repro.simulator import (
    Counters, CoreCache, PMBackend, PMReadBuffer, StreamPrefetcher,
)
from repro.simulator.cache import (
    ARRIVAL, DEMAND, HWPF, PROMO, SOURCE, SWPF, USED)
from repro.simulator.params import PMConfig, PrefetcherConfig
from repro.simulator.streamprefetcher import CONF, LAST, MAXPF


# -- CoreCache --------------------------------------------------------------

def test_cache_insert_lookup():
    c = Counters()
    cache = CoreCache(4, c)
    cache.insert(0, 10.0, DEMAND, used=True)
    assert 0 in cache
    ent = cache.lookup(0)
    assert ent[ARRIVAL] == 10.0
    assert cache.lookup(64) is None


def test_cache_lru_eviction_counts_useless_prefetch():
    c = Counters()
    cache = CoreCache(2, c)
    cache.insert(0, 0.0, HWPF)
    cache.insert(64, 0.0, HWPF)
    cache.insert(128, 0.0, DEMAND, used=True)  # evicts line 0 (unused HWPF)
    assert c.hwpf_useless == 1
    assert 0 not in cache and 64 in cache


def test_cache_eviction_of_used_line_not_useless():
    c = Counters()
    cache = CoreCache(1, c)
    cache.insert(0, 0.0, HWPF)
    cache.lookup(0)[USED] = True
    cache.insert(64, 0.0, DEMAND)
    assert c.hwpf_useless == 0


def test_cache_swpf_useless_on_drain():
    c = Counters()
    cache = CoreCache(4, c)
    cache.insert(0, 0.0, SWPF)
    cache.insert(64, 0.0, SWPF)
    cache.lookup(64)[USED] = True
    cache.drain()
    assert c.swpf_useless == 1
    assert len(cache) == 0


def test_cache_drain_counts_mixed_resident_set():
    """drain() counts only unused prefetches, by source, and empties
    the set; used prefetches and demand lines are not useless."""
    c = Counters(hwpf_useless=3, swpf_useless=5)
    cache = CoreCache(16, c)
    cache.insert(0, 0.0, HWPF)                 # unused HWPF
    cache.insert(64, 0.0, HWPF)                # used HWPF
    cache.lookup(64)[USED] = True
    cache.insert(128, 0.0, SWPF)               # unused SWPF
    cache.insert(192, 0.0, SWPF)               # unused SWPF
    cache.insert(256, 0.0, SWPF, used=True)    # used SWPF
    cache.insert(320, 0.0, DEMAND)             # demand, never marked used
    cache.insert(384, 0.0, DEMAND, used=True)  # demand
    cache.insert(448, 0.0, HWPF)               # unused HWPF
    cache.drain()
    assert (c.hwpf_useless, c.swpf_useless) == (3 + 2, 5 + 2)
    assert len(cache) == 0 and 0 not in cache
    cache.drain()
    assert (c.hwpf_useless, c.swpf_useless) == (5, 7)


def test_cache_reinsert_keeps_earliest_arrival():
    c = Counters()
    cache = CoreCache(4, c)
    cache.insert(0, 100.0, HWPF)
    cache.insert(0, 50.0, SWPF)
    assert cache.lookup(0)[ARRIVAL] == 50.0


def test_cache_capacity_validation():
    with pytest.raises(ValueError):
        CoreCache(0, Counters())


def test_entry_field_indices_match_the_interpreter_literals():
    """``engine.interpret`` indexes cache lines and streams with the
    literals 0..3 and 0..2; the named indices must stay those."""
    assert (ARRIVAL, SOURCE, USED, PROMO) == (0, 1, 2, 3)
    assert (LAST, CONF, MAXPF) == (0, 1, 2)


def test_cache_line_is_a_four_field_list():
    cache = CoreCache(4, Counters())
    cache.insert(0, 10.0, HWPF, promo_ns=3.0)
    assert cache.lookup(0) == [10.0, HWPF, False, 3.0]


# -- StreamPrefetcher --------------------------------------------------------

def _pf(max_streams=32, train=2, dist=4, enabled=True, ramp=1):
    cfg = PrefetcherConfig(enabled=enabled, max_streams=max_streams,
                           train_threshold=train, max_distance=dist,
                           ramp_div=ramp)
    c = Counters()
    return StreamPrefetcher(cfg, c), c


def test_prefetcher_stream_fields():
    pf, _ = _pf(train=2, dist=4)
    pf.on_access(0)
    stream = pf._table[0]
    assert (stream[LAST], stream[CONF], stream[MAXPF]) == (0, 0, 0)
    pf.on_access(64)
    pf.on_access(128)    # trains: prefetches line 3
    assert (stream[LAST], stream[CONF], stream[MAXPF]) == (2, 2, 3)
    pf.on_access(10 * 64)  # forward jump: loses confidence
    assert (stream[LAST], stream[CONF], stream[MAXPF]) == (10, 0, 3)


def test_prefetcher_trains_on_sequential():
    pf, c = _pf()
    assert pf.on_access(0) == []          # allocate
    assert pf.on_access(64) == []         # conf 1 < threshold
    out = pf.on_access(128)               # conf 2 == threshold -> distance 1
    assert out == [192]
    assert c.hwpf_issued == 1


def test_prefetcher_distance_ramps_to_cap():
    pf, c = _pf(dist=4)
    for line in range(8):
        pf.on_access(line * 64)
    # conf is now 8 -> distance capped at 4: covers up to line+4.
    out = pf.on_access(8 * 64)
    assert out and max(out) == (8 + 4) * 64


def test_prefetcher_ramp_div_slows_distance_growth():
    fast, _ = _pf(dist=8, ramp=1)
    slow, _ = _pf(dist=8, ramp=4)
    for line in range(6):
        fast.on_access(line * 64)
        slow.on_access(line * 64)
    out_fast = fast.on_access(6 * 64)
    out_slow = slow.on_access(6 * 64)
    assert max(out_fast) > max(out_slow)


def test_prefetcher_does_not_cross_page():
    pf, c = _pf(dist=8)
    for line in range(60, 64):
        pf.on_access(line * 64)
    out = pf.on_access(63 * 64)  # same-line re-access, nothing beyond page
    assert all(addr < 4096 for addr in out)


def test_prefetcher_disabled():
    pf, c = _pf(enabled=False)
    for line in range(8):
        assert pf.on_access(line * 64) == []
    assert c.hwpf_issued == 0


def test_prefetcher_stream_table_overflow_kills_coverage():
    """The paper's Obs. 3 cliff: > max_streams round-robin streams never train."""
    pf, c = _pf(max_streams=4, train=2)
    pages = 6
    issued = 0
    for row in range(8):
        for p in range(pages):
            issued += len(pf.on_access(p * 4096 + row * 64))
    assert issued == 0
    assert c.streams_evicted_untrained > 0


def test_prefetcher_within_capacity_trains():
    pf, c = _pf(max_streams=8, train=2)
    pages = 6
    issued = 0
    for row in range(8):
        for p in range(pages):
            issued += len(pf.on_access(p * 4096 + row * 64))
    assert issued > 0


def test_prefetcher_shuffled_access_never_trains():
    pf, c = _pf()
    # Non-sequential (stride 7) lines within one page.
    for i in range(20):
        line = (i * 7) % 64
        assert pf.on_access(line * 64) == []
    assert c.hwpf_issued == 0


def test_prefetcher_reset():
    pf, _ = _pf()
    pf.on_access(0)
    assert len(pf.state_digest(0)) == 1
    pf.reset()
    assert pf.state_digest(0) == ()


# -- PMReadBuffer -------------------------------------------------------------

#: A PM backend whose read buffer holds 1 KB / 256 B = 4 XPLines; the
#: buffer's logic lives in its line fill.
_RB_PM = PMConfig(read_buffer_kb=1)


def _rb_backend():
    c = Counters()
    return PMBackend(_RB_PM, c), c


def _hit(p, addr):
    """Read one line; True when it is served at buffer-hit latency."""
    return p.fill_line(addr, 0.0, True)[1] == _RB_PM.buffer_hit_latency_ns


def test_readbuffer_hit_after_fill():
    p, c = _rb_backend()
    assert not _hit(p, 0)
    assert _hit(p, 64)      # same XPLine
    assert not _hit(p, 256)  # next XPLine
    assert c.buffer_hits == 1
    assert c.buffer_misses == 2


def test_readbuffer_thrash_counting():
    p, c = _rb_backend()
    for xp in range(5):     # the fifth evicts XPLine 0, read once
        _hit(p, xp * 256)
    assert c.buffer_evictions == 1
    assert c.buffer_evictions_unused == 1


def test_readbuffer_used_eviction_not_thrash():
    p, c = _rb_backend()
    _hit(p, 0)
    _hit(p, 64)             # hit -> used twice
    for xp in range(1, 5):  # the fourth evicts XPLine 0
        _hit(p, xp * 256)
    assert c.buffer_evictions == 1
    assert c.buffer_evictions_unused == 0


def test_readbuffer_lru_refresh_on_hit():
    p, _ = _rb_backend()
    for xp in range(4):
        _hit(p, xp * 256)
    _hit(p, 0)              # refresh XPLine 0
    _hit(p, 4 * 256)        # should evict XPLine 1 (LRU), not 0
    assert _hit(p, 0)
    assert not _hit(p, 256)


def test_readbuffer_relabel_shifts_entries_in_place():
    """``fill_line`` holds the buffer's dict in its closure, so
    ``relabel`` must shift that same dict, not rebind it."""
    p, _ = _rb_backend()
    for xp in (2, 0, 1):
        _hit(p, xp * 256)
    _hit(p, 64)
    rb = p.read_buffer
    entries = rb._entries
    rb.relabel(3 * 256)
    assert rb._entries is entries
    assert list(entries.items()) == [(5, 1), (4, 1), (3, 2)]
    assert _hit(p, 3 * 256)      # the fill sees the shifted XPLines
    assert not _hit(p, 0)


def test_readbuffer_capacity_validation():
    with pytest.raises(ValueError):
        PMReadBuffer(0, 256)


# -- Counters ------------------------------------------------------------------

def test_counters_snapshot_delta():
    c = Counters()
    c.loads = 10
    snap = c.snapshot()
    c.loads = 25
    assert c.delta(snap).loads == 15


def test_counters_merge():
    a, b = Counters(), Counters()
    a.loads, b.loads = 3, 4
    a.merge(b)
    assert a.loads == 7


def test_counters_derived_metrics():
    c = Counters()
    assert c.useless_hwpf_ratio == 0.0
    c.hwpf_issued, c.hwpf_useless = 10, 3
    assert c.useless_hwpf_ratio == pytest.approx(0.3)
    c.loads, c.load_stall_ns = 4, 100.0
    assert c.avg_load_latency_ns == 25.0
    c.app_read_bytes, c.media_read_bytes = 100, 150
    assert c.media_read_amplification == 1.5


def test_counter_sampler_period():
    from repro.simulator.counters import CounterSampler
    c = Counters()
    s = CounterSampler(c, period_ns=1000.0)
    c.loads = 5
    assert s.maybe_sample(500.0) is None
    d = s.maybe_sample(1500.0)
    assert d is not None and d.loads == 5
    c.loads = 8
    d2 = s.maybe_sample(2600.0)
    assert d2.loads == 3
