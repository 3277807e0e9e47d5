"""The interpreter against its reference: exact equality, not approx.

``ThreadContext.run()`` is the simulator's only interpreter: single-
thread runs call it once, the multicore scheduler once per turn with a
clock limit. ``tests/reference_interpreter.py`` states the same
semantics one op at a time through the model methods. Every makespan,
thread time and counter must match it bit for bit, on random traces
over all five opcodes, 1-4 threads, PM and DRAM, prefetcher on and off
— including the equal-clock ties the scheduler breaks by thread index.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro import simulate
from repro.simulator import Counters, HardwareConfig
from repro.simulator.engine import ThreadContext
from repro.simulator.multicore import make_backends
from repro.simulator.params import CacheConfig
from repro.trace.ops import COMPUTE, FENCE, LOAD, STORE, SWPF, Trace

from tests.reference_interpreter import assert_identical, reference_simulate

PAGE_LINES = 64
#: Three 4 KB pages: small enough that loads, prefetches and the
#: threads' accesses keep colliding in the cache and the read buffer.
SPAN_LINES = 3 * PAGE_LINES


def _hw(load_source="pm", store_target="pm", prefetch=True, tiny=False):
    hw = HardwareConfig().with_(load_source=load_source,
                                store_target=store_target)
    hw = hw.with_prefetcher(enabled=prefetch)
    if tiny:
        # Every capacity small enough to evict: 16 cache lines, 4
        # XPLines of read buffer, 2 streams; and a WPQ that stalls.
        hw = hw.with_(cache=CacheConfig(l2_kb=1)).with_pm(read_buffer_kb=1)
        hw = hw.with_prefetcher(max_streams=2)
        hw = hw.with_cpu(wpq_backpressure_ns=20.0)
    return hw


_addr = st.integers(0, SPAN_LINES - 1).map(lambda line: line * 64)
_single_op = st.one_of(
    st.tuples(st.just(LOAD), _addr),
    st.tuples(st.just(STORE), _addr),
    st.tuples(st.just(SWPF), _addr),
    st.tuples(st.just(COMPUTE), st.sampled_from([0.0, 1.0, 33.0, 1000.0])),
    st.tuples(st.just(FENCE), st.just(0.0)),
)
#: Ascending runs train the streamer, so hardware prefetches are issued.
_run = st.tuples(st.sampled_from([LOAD, SWPF]),
                 st.integers(0, SPAN_LINES - 1),
                 st.integers(4, 24)).map(
    lambda r: [(r[0], ((r[1] + j) % SPAN_LINES) * 64) for j in range(r[2])])
_ops = st.lists(st.one_of(_single_op.map(lambda op: [op]), _run),
                max_size=12).map(lambda segs: [op for s in segs for op in s])


@st.composite
def _thread_ops(draw):
    """Ops for 1-4 threads: identical (clock ties), or independent."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return [draw(_ops)] * n
    return [draw(_ops) for _ in range(n)]


_hardware = st.builds(_hw,
                      load_source=st.sampled_from(["pm", "dram"]),
                      store_target=st.sampled_from(["pm", "dram"]),
                      prefetch=st.booleans(),
                      tiny=st.booleans())


def _traces(per_thread):
    return [Trace(ops=ops, data_bytes=64 * len(ops)) for ops in per_thread]


def _contexts(hw, n):
    counters = Counters()
    load_b, store_b = make_backends(hw, counters)
    return [ThreadContext(hw, counters, load_b, store_b) for _ in range(n)]


@given(_thread_ops(), _hardware)
@settings(max_examples=150, deadline=None)
def test_simulate_matches_reference(per_thread, hw):
    res = simulate(_traces(per_thread), hw)
    assert_identical(res, reference_simulate(_traces(per_thread), hw))


@pytest.mark.parametrize("threads", [2, 3, 4])
def test_equal_clock_ties_break_by_thread_index(threads):
    """Threads sharing a clock run in index order, op for op.

    Every thread posts a store, then fences on the shared write pipe:
    the fences land all clocks on the same ``free_at``. ``COMPUTE 0``
    and a second fence on the drained pipe keep them there. The loads
    that follow hit one XPLine, so which thread goes first decides who
    pays the media miss.
    """
    ops = [(STORE, 0), (FENCE, 0), (COMPUTE, 0.0), (FENCE, 0),
           (LOAD, 64), (LOAD, 128), (COMPUTE, 0.0), (LOAD, 192)]
    for hw in (_hw(), _hw(prefetch=False), _hw(load_source="dram")):
        res = simulate(_traces([ops] * threads), hw)
        assert_identical(res, reference_simulate(_traces([ops] * threads),
                                                 hw))
        assert len(set(res.thread_times_ns)) > 1


@given(_thread_ops(), _hardware, st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_chunked_reentry_matches_reference(per_thread, hw, chunks):
    """Live contexts extended and re-entered chunk by chunk (the DIALGA
    adaptation loop) match the reference fed the same chunks.

    A chunk boundary is a barrier — every thread finishes its chunk
    before any starts the next — so the multi-thread comparison is
    chunk for chunk; a single thread is also checked against one
    reference run of the concatenated trace.
    """
    n = len(per_thread)
    live, ref = _contexts(hw, n), _contexts(hw, n)
    for c in range(chunks):
        chunk = [ops[c * len(ops) // chunks:(c + 1) * len(ops) // chunks]
                 for ops in per_thread]
        last = c == chunks - 1
        for ctxs in (live, ref):
            for ctx, trace in zip(ctxs, _traces(chunk)):
                ctx.trace.extend(trace)
        res = simulate([], hw, contexts=live, drain=last)
        assert_identical(res, reference_simulate([], hw, contexts=ref,
                                                 drain=last))
    if n == 1:
        assert_identical(res, reference_simulate([live[0].trace], hw))


def test_unknown_opcode_in_multithread_run_stops_at_bad_op():
    hw = HardwareConfig()
    good = [(LOAD, i * 64) for i in range(8)]
    bad = good[:3] + [(99, 0)] + good[3:]
    live, ref = _contexts(hw, 2), _contexts(hw, 2)
    for ctxs in (live, ref):
        for ctx, trace in zip(ctxs, _traces([good, bad])):
            ctx.trace.extend(trace)
    with pytest.raises(ValueError, match="unknown opcode 99"):
        simulate([], hw, contexts=live)
    with pytest.raises(ValueError, match="unknown opcode 99"):
        reference_simulate([], hw, contexts=ref)
    assert live[1].pc == 3
    assert [ctx.pc for ctx in live] == [ctx.pc for ctx in ref]
    assert [ctx.clock for ctx in live] == [ctx.clock for ctx in ref]
    assert asdict(live[0].counters) == asdict(ref[0].counters)
