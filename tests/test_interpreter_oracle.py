"""The interpreter against its reference: exact equality, not approx.

``repro.simulator.engine.interpret`` is the simulator's only
interpreter: one call runs all of a simulation's threads, switching
between them inside its loop, and a single-thread run is its N=1 case.
``tests/reference_interpreter.py`` states the same semantics one op at
a time through the model methods. Every makespan, thread time and
counter must match it bit for bit, on random traces over all five
opcodes, 1-4 threads, PM and DRAM, prefetcher on and off — including
the equal-clock ties the scheduler breaks by thread index — and on
fixed traces at the 8 and 16 threads of the scaling figures.
"""

import heapq
import random
import signal
import types
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro import simulate
from repro.simulator import Counters, HardwareConfig, engine
from repro.simulator.engine import ThreadContext
from repro.simulator.multicore import make_backends, make_contexts
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


@given(_thread_ops(), _hardware, st.integers(1, 4), st.integers(1, 500))
@settings(max_examples=40, deadline=None)
def test_chunked_reentry_from_bumped_counters(per_thread, hw, chunks,
                                               bump):
    """Counters changed between calls, as a fast-forward jump changes
    them, stay exact: the interpreter settles ``app_read_bytes`` and
    ``write_bytes`` from the loads and stores of each call, so it must
    add to what it finds, not recompute from the op counts.

    The counters start non-zero and inconsistent (bytes that are no
    multiple of the op counts), and every chunk first adds to
    ``loads``/``app_read_bytes`` and ``stores``/``write_bytes``.
    """
    n = len(per_thread)
    live, ref = _contexts(hw, n), _contexts(hw, n)
    for ctxs in (live, ref):
        ctr = ctxs[0].counters
        ctr.loads, ctr.app_read_bytes = 7, 1000
        ctr.stores, ctr.write_bytes = 3, 100
    for c in range(chunks):
        chunk = [ops[c * len(ops) // chunks:(c + 1) * len(ops) // chunks]
                 for ops in per_thread]
        last = c == chunks - 1
        for ctxs in (live, ref):
            ctr = ctxs[0].counters
            ctr.loads += bump
            ctr.app_read_bytes += 64 * bump
            ctr.stores += 2 * bump
            ctr.write_bytes += 128 * bump
            for ctx, trace in zip(ctxs, _traces(chunk)):
                ctx.trace.extend(trace)
        res = simulate([], hw, contexts=live, drain=last)
        assert_identical(res, reference_simulate([], hw, contexts=ref,
                                                 drain=last))


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


def test_empty_turn_raises_instead_of_spinning(monkeypatch):
    """A scheduler that hands a thread straight back gives it a turn
    with no op to run; the interpreter raises rather than loop forever
    (the alarm fails the test, not hangs it, should that ever break)."""
    broken = types.SimpleNamespace(
        heapify=heapq.heapify, heappop=heapq.heappop,
        heappushpop=lambda heap, item: item)
    monkeypatch.setattr(engine, "heapq", broken)
    hw = HardwareConfig()
    live = make_contexts(hw, _traces([_fixed_ops(3, 40)] * 2))

    def hang(signum, frame):
        raise TimeoutError("interpret spun on an empty turn")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        with pytest.raises(RuntimeError, match="empty turn"):
            engine.interpret(live)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert live[0].pc == 1 and live[1].pc == 0


# ------------------------------------------------ 8 and 16 threads

def _fixed_ops(seed: int, n: int) -> list:
    """``n`` seeded ops over all five opcodes, with ascending LOAD/SWPF
    runs that train the streamer."""
    rng = random.Random(seed)
    ops = []
    while len(ops) < n:
        r = rng.random()
        line = rng.randrange(SPAN_LINES)
        if r < 0.35:
            kind = rng.choice([LOAD, LOAD, SWPF])
            ops += [(kind, ((line + j) % SPAN_LINES) * 64)
                    for j in range(rng.randint(4, 24))]
        elif r < 0.55:
            ops.append((LOAD, line * 64))
        elif r < 0.7:
            ops.append((STORE, line * 64))
        elif r < 0.8:
            ops.append((SWPF, line * 64))
        elif r < 0.93:
            ops.append((COMPUTE, rng.choice([0.0, 1.0, 33.0, 1000.0])))
        else:
            ops.append((FENCE, 0.0))
    return ops[:n]


_MANY_HW = [_hw(), _hw(tiny=True), _hw(load_source="dram"),
            _hw(prefetch=False, tiny=True)]


@pytest.mark.parametrize("threads", [8, 16])
def test_many_threads_identical_traces(threads):
    """Identical traces: every thread starts at clock 0, so each
    scheduling decision is a clock tie broken by thread index."""
    per_thread = [_fixed_ops(threads, 160)] * threads
    for hw in _MANY_HW:
        res = simulate(_traces(per_thread), hw)
        assert_identical(res, reference_simulate(_traces(per_thread), hw))
        assert len(set(res.thread_times_ns)) > 1


@pytest.mark.parametrize("threads", [8, 16])
def test_many_threads_uneven_lengths(threads):
    """Threads finish one by one mid-run (one has nothing to do), and
    the longest runs its tail alone, with no other thread to bound it."""
    per_thread = [_fixed_ops(100 + t, 12 * t) for t in range(threads - 1)]
    per_thread.append(_fixed_ops(99, 12 * threads + 200))
    for hw in _MANY_HW:
        res = simulate(_traces(per_thread), hw)
        assert_identical(res, reference_simulate(_traces(per_thread), hw))


@pytest.mark.parametrize("threads", [8, 16])
def test_many_threads_chunked_reentry(threads):
    """Chunk-by-chunk re-entry with ``drain=False`` between chunks, as
    the DIALGA adaptation loop runs it: half the threads share one
    trace (ties), the rest are independent and of uneven length."""
    same = _fixed_ops(threads, 120)
    per_thread = ([same] * (threads // 2)
                  + [_fixed_ops(200 + t, 60 + 20 * t)
                     for t in range(threads - threads // 2)])
    chunks = 3
    for hw in _MANY_HW:
        live, ref = _contexts(hw, threads), _contexts(hw, threads)
        for c in range(chunks):
            chunk = [ops[c * len(ops) // chunks:
                         (c + 1) * len(ops) // chunks]
                     for ops in per_thread]
            last = c == chunks - 1
            for ctxs in (live, ref):
                for ctx, trace in zip(ctxs, _traces(chunk)):
                    ctx.trace.extend(trace)
            res = simulate([], hw, contexts=live, drain=last)
            assert_identical(res, reference_simulate(
                [], hw, contexts=ref, drain=last))


def test_contexts_from_two_builds_are_rejected():
    """The interpreter takes the counters, backends and hardware from
    the first context, so contexts that do not share them are an
    error, not a silently wrong result."""
    hw = HardwareConfig()
    traces = _traces([_fixed_ops(1, 50)] * 2)
    a, b = make_contexts(hw, traces), make_contexts(hw, traces)
    with pytest.raises(ValueError, match="make_contexts"):
        simulate([], hw, contexts=[a[0], b[1]])
    other = make_contexts(_hw(tiny=True), traces)
    other[1].counters = a[0].counters
    other[1].load_backend = a[0].load_backend
    other[1].store_backend = a[0].store_backend
    with pytest.raises(ValueError, match="make_contexts"):
        simulate([], hw, contexts=[a[0], other[1]])
    assert [ctx.pc for ctx in a + b + other] == [0] * 6
