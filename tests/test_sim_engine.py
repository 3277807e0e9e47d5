"""Unit tests for the execution engine and memory backends."""

import pytest

from repro.simulator import (
    Counters,
    DRAMBackend,
    HardwareConfig,
    PMBackend,
    simulate,
)
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


def test_dram_bandwidth_queueing():
    c = Counters()
    d = DRAMBackend(HW.dram, c)
    # Saturate the pipe with back-to-back same-time requests.
    delays = [d.fill_line(i * 64, 0.0, demand=True)[0] for i in range(10)]
    assert delays[0] == 0.0
    assert delays[-1] > delays[1] > 0.0


def test_pm_fill_miss_then_buffer_hit():
    c = Counters()
    p = PMBackend(HW.pm, c)
    _, lat1, _ = p.fill_line(0, 0.0, demand=True)
    assert lat1 == HW.pm.media_latency_ns
    _, lat2, dlat2 = p.fill_line(64, 1000.0, demand=True)  # same XPLine
    assert dlat2 == lat2
    assert lat2 == HW.pm.buffer_hit_latency_ns
    assert c.media_read_bytes == 256
    assert c.ctrl_read_bytes == 128


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
    assert res.throughput_mbps == pytest.approx(res.throughput_gbps * 1000)
