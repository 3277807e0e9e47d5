"""Edge-case tests for the engine, multicore scheduler and backends."""

import pytest

from repro.simulator import (
    Counters, DRAMBackend, HardwareConfig, PMBackend, ThreadContext,
    simulate,
)
from repro.simulator.multicore import make_backends
from repro.trace.ops import COMPUTE, FENCE, LOAD, STORE, SWPF, Trace, op_name

HW = HardwareConfig()


def test_op_name_mapping():
    assert op_name(LOAD) == "LOAD"
    assert op_name(99) == "op99"


def test_trace_extend_accumulates():
    a = Trace(ops=[(LOAD, 0)], data_bytes=10)
    b = Trace(ops=[(STORE, 64)], data_bytes=5)
    a.extend(b)
    assert len(a) == 2 and a.data_bytes == 15
    assert a.counts() == {"LOAD": 1, "STORE": 1}


def test_store_backpressure_stalls():
    """A burst of NT stores beyond the WPQ horizon must stall the core."""
    hw = HW.with_pm(write_bw_gbps=0.05)  # pathologically slow writes
    ops = [(STORE, i * 64) for i in range(64)]
    res = simulate(Trace(ops=ops), hw)
    finish, c = res.makespan_ns, res.counters
    assert c.store_stall_ns > 0
    assert finish > 64 * 64 / 0.05 * 0.5  # at least half the occupancy


def test_fence_on_dram_target():
    hw = HW.with_(store_target="dram")
    res = simulate(Trace(ops=[(STORE, 0), (FENCE, 0)]), hw)
    finish, c = res.makespan_ns, res.counters
    assert finish >= 64 / hw.dram.write_bw_gbps


def test_fence_noop_without_stores():
    finish = simulate(Trace(ops=[(FENCE, 0)]), HW).makespan_ns
    assert finish == 0.0


def test_swpf_to_cached_line_is_cheap():
    t = Trace(ops=[(LOAD, 0), (SWPF, 0)])
    c = simulate(t, HW).counters
    # one media fill only: the prefetch found the line resident
    assert c.media_read_bytes == 256


def test_context_reuse_across_simulate_calls():
    """The DIALGA chunking pattern: extend a live context and re-enter."""
    counters = Counters()
    load_b, store_b = make_backends(HW, counters)
    ctx = ThreadContext(HW, counters, load_b, store_b)
    ctx.trace.extend(Trace(ops=[(LOAD, i * 64) for i in range(8)],
                           data_bytes=512))
    r1 = simulate([], HW, contexts=[ctx], drain=False)
    clock1 = ctx.clock
    ctx.trace.extend(Trace(ops=[(LOAD, (100 + i) * 64) for i in range(8)],
                           data_bytes=512))
    r2 = simulate([], HW, contexts=[ctx])
    assert ctx.pc == 16
    assert r2.makespan_ns > clock1
    assert counters.loads == 16


def test_drain_flag_defers_useless_accounting():
    ops = [(SWPF, 4096)]  # prefetch never demanded
    counters = Counters()
    load_b, store_b = make_backends(HW, counters)
    ctx = ThreadContext(HW, counters, load_b, store_b,
                        trace=Trace(ops=list(ops)))
    simulate([], HW, contexts=[ctx], drain=False)
    assert counters.swpf_useless == 0
    ctx.cache.drain()
    assert counters.swpf_useless == 1


def test_threads_with_unequal_traces():
    t_short = Trace(ops=[(COMPUTE, 100.0)], data_bytes=1)
    t_long = Trace(ops=[(COMPUTE, 100.0)] * 50, data_bytes=1)
    res = simulate([t_short, t_long], HW)
    assert res.thread_times_ns[0] < res.thread_times_ns[1]
    assert res.makespan_ns == res.thread_times_ns[1]


def test_media_pipe_queueing_under_burst():
    """Concurrent cold misses from many threads queue at the media."""
    nt = 16
    traces = [Trace(ops=[(LOAD, ((t + 1) << 44) + i * 4096)
                         for i in range(16)])
              for t in range(nt)]
    res = simulate(traces, HW)
    per_thread_alone = simulate(
        [Trace(ops=[(LOAD, (1 << 44) + i * 4096) for i in range(16)])],
        HW).makespan_ns
    # shared bandwidth means slower than a lone thread
    assert res.makespan_ns > per_thread_alone


def test_backends_shared_iff_same_kind():
    counters = Counters()
    lb, sb = make_backends(HW, counters)
    assert lb is sb  # both "pm"
    lb2, sb2 = make_backends(HW.with_(load_source="dram"), counters)
    assert lb2 is not sb2
    assert isinstance(lb2, DRAMBackend) and isinstance(sb2, PMBackend)


def test_compute_scales_inversely_with_frequency():
    t = Trace(ops=[(COMPUTE, 1000.0)])
    slow = simulate(Trace(ops=list(t.ops)),
                    HW.with_cpu(freq_ghz=1.0)).makespan_ns
    fast = simulate(Trace(ops=list(t.ops)),
                    HW.with_cpu(freq_ghz=2.0)).makespan_ns
    assert slow == pytest.approx(2 * fast)


def test_cpu_simd_validation():
    with pytest.raises(ValueError):
        HW.with_cpu(simd="sse42").cpu.simd_factor


def test_simulate_with_all_done_contexts():
    counters = Counters()
    load_b, store_b = make_backends(HW, counters)
    ctx = ThreadContext(HW, counters, load_b, store_b, trace=Trace(ops=[]))
    res = simulate([], HW, contexts=[ctx])
    assert res.makespan_ns == 0.0


def test_counters_merge_full_roundtrip():
    a = Counters()
    a.loads, a.media_read_bytes, a.load_stall_ns = 5, 512, 100.0
    b = Counters()
    b.loads, b.media_read_bytes, b.load_stall_ns = 7, 256, 50.0
    a.merge(b)
    assert (a.loads, a.media_read_bytes, a.load_stall_ns) == (12, 768, 150.0)


def test_promoted_late_prefetch_never_worse_than_cold_miss():
    """The demand-promotion invariant: issuing a prefetch right before
    its load can't cost more than not prefetching at all (modulo the
    1-cycle issue overhead)."""
    addrs = [i * 4096 for i in range(32)]  # distinct XPLines, no buffer help
    cold_ops = [(LOAD, a) for a in addrs]
    pf_ops = []
    for a in addrs:
        pf_ops += [(SWPF, a), (LOAD, a)]
    hw = HW.with_prefetcher(enabled=False)
    cold = simulate(Trace(ops=cold_ops), hw).makespan_ns
    pf = simulate(Trace(ops=pf_ops), hw).makespan_ns
    issue_overhead = 32 * HW.cpu.swpf_issue_cycles / HW.cpu.freq_ghz
    assert pf <= cold + issue_overhead + 1.0
