"""Unit tests for the execution engine and memory backends."""

import pytest

from repro.simulator import (
    Counters,
    DRAMBackend,
    HardwareConfig,
    PMBackend,
    simulate,
)
from repro.simulator.params import DRAMConfig, PMConfig
from repro.trace.ops import LOAD, STORE, SWPF, COMPUTE, FENCE, Trace

from tests.reference_interpreter import assert_identical, reference_simulate

HW = HardwareConfig()


def _trace(ops, data_bytes=0):
    return Trace(ops=list(ops), data_bytes=data_bytes)


# -- backends -----------------------------------------------------------------

def test_dram_fill_latency_and_traffic():
    c = Counters()
    d = DRAMBackend(HW.dram, c)
    qd, lat, dlat = d.fill_line(0, 0.0, demand=True)
    assert qd == 0.0
    assert lat == HW.dram.latency_ns
    assert c.ctrl_read_bytes == 64


#: Fill-oracle configs, spelled out so the expected values below do not
#: move with the defaults. Pipe steps: DDR-T 64 B * (1/40) = 1.6 ns,
#: media 256 B * (1/14) = 18.285714285714285 ns, DRAM read 64 B *
#: (1/75) = 0.8533333333333334 ns. The PM read buffer holds 1 KB / 256 B
#: = 4 XPLines.
ORACLE_PM = PMConfig(media_latency_ns=350.0, buffer_hit_latency_ns=160.0,
                     xpline_bytes=256, read_buffer_kb=1,
                     media_read_bw_gbps=14.0, ctrl_bw_gbps=40.0,
                     prefetch_latency_factor=2.0)
ORACLE_DRAM = DRAMConfig(latency_ns=80.0, read_bw_gbps=75.0)

#: (latency, demand_latency) of a PM demand miss, prefetch miss and hit.
MISS, PF_MISS, HIT = (350.0, 350.0), (700.0, 350.0), (160.0, 160.0)


@pytest.mark.parametrize("calls", [
    # All at t=0: each read waits for the ones before it.
    [(0.0, True, 0.0), (0.0, True, 0.8533333333333334),
     (0.0, False, 1.7066666666666668), (0.0, True, 2.56)],
    # 0.1 + step - 0.3, then 0.1 + 2 steps - 0.3; an idle gap drains
    # the pipe.
    [(0.1, True, 0.0), (0.3, True, 0.6533333333333333),
     (0.3, False, 1.5066666666666666), (5.0, True, 0.0)],
], ids=["back-to-back", "offset"])
def test_dram_bandwidth_queueing(calls):
    """Exact read-pipe queue delays; DRAM latency ignores priority."""
    c = Counters()
    d = DRAMBackend(ORACLE_DRAM, c)
    for i, (now, demand, wait) in enumerate(calls):
        assert d.fill_line(i * 64, now, demand) == (wait, 80.0, 80.0)
    assert c.ctrl_read_bytes == 64 * len(calls)


@pytest.mark.parametrize("calls,counts", [
    # Cold miss, then a later read of the same XPLine hits the buffer.
    ([(0, 0.0, True, 0.0, MISS), (64, 1000.0, True, 0.0, HIT)],
     dict(media_read_bytes=256, buffer_hits=1, buffer_misses=1)),
    # DDR-T queueing on buffer hits: 1.6 - 0.5, then 3.2 - 0.5. A
    # prefetch that hits pays the hit latency, not the prefetch factor.
    ([(0, 0.0, True, 0.0, MISS), (64, 0.5, True, 1.1, HIT),
      (128, 0.5, False, 2.7, HIT)],
     dict(media_read_bytes=256, buffer_hits=2, buffer_misses=1)),
    # Media queueing behind the DDR-T transfer: the media pipe is taken
    # at t = now + qd, and wait = qd + (media start - t). The third
    # read's wait rounds differently if t is the bus start or if the
    # adds are regrouped.
    ([(0, 0.1, True, 0.0, MISS), (256, 0.1, True, 18.28571428571429, MISS),
      (512, 0.7, False, 35.97142857142857, PF_MISS),
      (64, 0.7, True, 4.2, HIT)],
     dict(media_read_bytes=768, buffer_hits=1, buffer_misses=3)),
    # A prefetch miss completes at media latency x factor; a promoted
    # demand would pay the plain media latency.
    ([(0, 0.0, False, 0.0, PF_MISS), (64, 1000.0, False, 0.0, HIT)],
     dict(media_read_bytes=256, buffer_hits=1, buffer_misses=1)),
    # LRU over 4 XPLines, reads 1 us apart (no queueing). Hits refresh:
    # XPLine 0 goes first (unused), then 3 (unused), then 1 (read
    # twice: not unused); 2 survives; re-reading 1 misses and evicts 4.
    ([(0, 0.0, True, 0.0, MISS), (256, 1000.0, True, 0.0, MISS),
      (512, 2000.0, True, 0.0, MISS), (768, 3000.0, True, 0.0, MISS),
      (320, 4000.0, True, 0.0, HIT), (1024, 5000.0, True, 0.0, MISS),
      (640, 6000.0, True, 0.0, HIT), (1280, 7000.0, True, 0.0, MISS),
      (1536, 8000.0, True, 0.0, MISS), (704, 9000.0, True, 0.0, HIT),
      (256, 10000.0, True, 0.0, MISS)],
     dict(media_read_bytes=2048, buffer_hits=3, buffer_misses=8,
          buffer_evictions=4, buffer_evictions_unused=3)),
], ids=["miss-then-hit", "ctrl-queue", "media-queue", "prefetch-factor",
        "lru-evict-unused"])
def test_pm_fill_miss_then_buffer_hit(calls, counts):
    """Exact ``(wait, latency, demand_latency)`` of every PM fill."""
    c = Counters()
    p = PMBackend(ORACLE_PM, c)
    for addr, now, demand, wait, (lat, dlat) in calls:
        assert p.fill_line(addr, now, demand) == (wait, lat, dlat)
    expected = {"buffer_evictions": 0, "buffer_evictions_unused": 0,
                "ctrl_read_bytes": 64 * len(calls), **counts}
    assert {k: getattr(c, k) for k in expected} == expected


def test_pm_write_and_drain():
    c = Counters()
    p = PMBackend(HW.pm, c)
    p.write_line(0, 0.0)
    assert c.write_bytes == 64
    assert p.drain_writes(0.0) > 0.0


# -- engine --------------------------------------------------------------------

def test_cold_load_pays_memory_latency():
    t = _trace([(LOAD, 0)])
    res = simulate(t, HW)
    finish, c = res.makespan_ns, res.counters
    assert c.loads == 1 and c.load_misses == 1
    # latency/mlp is charged as stall
    assert c.load_stall_ns == pytest.approx(HW.pm.media_latency_ns / HW.pm.mlp)


def test_buffer_hit_second_line():
    t = _trace([(LOAD, 0), (LOAD, 64)])
    c = simulate(t, HW).counters
    assert c.buffer_hits == 1
    assert c.media_read_bytes == 256  # one XPLine for both lines


def test_repeat_load_hits_cache():
    t = _trace([(LOAD, 0), (LOAD, 0)])
    c = simulate(t, HW).counters
    assert c.load_cache_hits == 1
    assert c.load_misses == 1


def test_compute_advances_clock():
    t = _trace([(COMPUTE, 330.0)])  # 330 cycles @3.3GHz = 100ns
    res = simulate(t, HW)
    finish, c = res.makespan_ns, res.counters
    assert finish == pytest.approx(100.0)
    assert c.compute_ns == pytest.approx(100.0)


def test_avx256_doubles_compute():
    t = _trace([(COMPUTE, 330.0)])
    finish = simulate(t, HW.with_cpu(simd="avx256")).makespan_ns
    assert finish == pytest.approx(200.0)


def test_swpf_hides_latency_with_enough_lead():
    # prefetch, then compute longer than the (deprioritized) prefetch
    # fill latency, then load
    lead_cycles = (HW.pm.media_latency_ns * HW.pm.prefetch_latency_factor
                   + 100) * HW.cpu.freq_ghz
    t = _trace([(SWPF, 0), (COMPUTE, lead_cycles), (LOAD, 0)])
    c = simulate(t, HW).counters
    assert c.load_cache_hits == 1
    assert c.swpf_issued == 1
    assert c.load_stall_ns == 0.0


def test_swpf_late_partial_stall():
    # load immediately after prefetch: only residual latency is paid
    t = _trace([(SWPF, 0), (LOAD, 0)])
    c = simulate(t, HW).counters
    assert c.load_late_prefetch == 1
    assert c.swpf_late == 1
    limit = HW.pm.media_latency_ns * HW.pm.prefetch_latency_factor
    assert 0 < c.load_stall_ns < limit


@pytest.mark.parametrize("source,lead", [("pm", 6), ("dram", 4)])
def test_late_swpf_arrival_order_matches_reference(source, lead):
    """A queued prefetch arrives at ``(issue + wait) + latency``.

    The second SWPF queues behind the first, and the load lands inside
    the promotion window, so it stalls for exactly the residual time.
    With these leads, ``issue + (wait + latency)`` rounds differently.
    """
    ops = [(COMPUTE, lead), (SWPF, 0), (SWPF, 4096),
           (COMPUTE, 2300 if source == "pm" else 230), (LOAD, 4096)]
    hw = HW.with_(load_source=source)
    res = simulate(_trace(ops), hw, fastforward=False)
    assert res.counters.load_late_prefetch == 1
    assert_identical(res, reference_simulate([_trace(ops)], hw))


def test_hw_prefetch_issue_and_useful():
    # Sequential walk over one page: streamer trains and covers lines.
    ops = [(LOAD, i * 64) for i in range(32)]
    c = simulate(_trace(ops), HW).counters
    assert c.hwpf_issued > 0
    assert c.hwpf_useful > 0
    assert c.load_cache_hits > 0


def test_hw_prefetch_disabled_no_issue():
    ops = [(LOAD, i * 64) for i in range(32)]
    c = simulate(_trace(ops), HW.with_prefetcher(enabled=False)).counters
    assert c.hwpf_issued == 0
    assert c.load_cache_hits == 0


def test_store_counted_and_fence_waits():
    t = _trace([(STORE, 0), (FENCE, 0)])
    res = simulate(t, HW)
    finish, c = res.makespan_ns, res.counters
    assert c.stores == 1
    assert finish >= 64 / HW.pm.write_bw_gbps  # at least the write occupancy


def test_unknown_opcode_rejected():
    with pytest.raises(ValueError):
        simulate(_trace([(99, 0)]), HW)


def test_dram_source_uses_dram_latency():
    hw = HW.with_(load_source="dram")
    t = _trace([(LOAD, 0)])
    c = simulate(t, hw).counters
    assert c.load_stall_ns == pytest.approx(HW.dram.latency_ns / HW.dram.mlp)
    assert c.media_read_bytes == 0


# -- multicore -------------------------------------------------------------------

def test_simulate_requires_traces():
    with pytest.raises(ValueError):
        simulate([], HW)


def test_simulate_single_matches_reference():
    ops = [(LOAD, i * 64) for i in range(64)] + [(FENCE, 0)]
    assert_identical(simulate(_trace(list(ops)), HW),
                     reference_simulate([_trace(list(ops))], HW))


def test_simulate_two_threads_share_buffer():
    # Two threads in disjoint regions: media traffic from both lands in
    # the shared counters, and makespan >= each thread alone.
    ops_a = [(LOAD, (1 << 44) + i * 64) for i in range(64)]
    ops_b = [(LOAD, (2 << 44) + i * 64) for i in range(64)]
    res = simulate([_trace(ops_a), _trace(ops_b)], HW)
    assert res.counters.loads == 128
    assert len(res.thread_times_ns) == 2


def test_throughput_property():
    ops = [(COMPUTE, 330.0)]
    res = simulate([_trace(ops, data_bytes=1000)], HW)
    assert res.throughput_gbps == pytest.approx(1000 / res.makespan_ns)
