"""Reference interpreter: the simulator's per-op semantics, spelled out.

:meth:`repro.simulator.engine.ThreadContext.run` inlines the cache, the
streamer and the store path into one loop for speed; its line fills
are one call into the load backend's ``fill_line``. This module states
the same semantics readably, one op at a time, through the model
methods themselves — ``CoreCache.lookup/insert``,
``StreamPrefetcher.on_access`` and the backends'
``fill_line``/``write_line``/``drain_writes`` — and schedules threads
with a plain ``(clock, index)`` heap, one op per turn.

It is the oracle the interpreter is pinned to: every makespan, thread
time and counter must agree exactly (``==``, not approximately), which
holds only if both perform the same floating-point operations in the
same order. Both call the same ``fill_line``, so the oracle checks
what ``run()`` does with a fill's ``(wait, latency, demand_latency)``,
not the fill itself: ``tests/test_sim_engine.py`` pins the fill
arithmetic with hand-computed values.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict

from repro.simulator.cache import DEMAND, HWPF, SWPF as SWPF_SRC
from repro.simulator.counters import Counters
from repro.simulator.engine import ThreadContext
from repro.simulator.multicore import SimResult, make_backends
from repro.trace.ops import COMPUTE, FENCE, LOAD, STORE, SWPF


def _issue_hw_prefetches(ctx: ThreadContext, line: int) -> None:
    """Train the streamer on ``line``; fill whatever it asks for."""
    backend = ctx.load_backend
    for target in ctx.prefetcher.on_access(line):
        qd, lat, dlat = backend.fill_line(target, ctx.clock, demand=False)
        ctx.cache.insert(target, ctx.clock + qd + lat, HWPF,
                         promo_ns=dlat / backend.mlp)


def _load(ctx: ThreadContext, addr: int) -> None:
    c = ctx.counters
    cpu = ctx.hw.cpu
    hit_ns = ctx.hw.cache.hit_latency_ns
    c.loads += 1
    c.app_read_bytes += 64
    now = ctx.clock + cpu.load_issue_cycles * cpu.ns_per_cycle
    line = addr & ~63
    ent = ctx.cache.lookup(line)
    if ent is not None:
        ent.used = True
        if ent.arrival_ns <= now:
            c.load_cache_hits += 1
            if ent.source == HWPF:
                c.hwpf_useful += 1
            now += hit_ns
        else:
            # In-flight prefetch: the demand promotes the request to
            # demand priority, so the wait is the smaller of the
            # prefetch's remaining time and what the same fill would
            # have cost at demand priority.
            wait = min(ent.arrival_ns - now, ent.promo_ns)
            c.load_late_prefetch += 1
            c.load_stall_ns += wait
            if ent.source == SWPF_SRC:
                c.swpf_late += 1
            elif ent.source == HWPF:
                # Late hardware prefetch: mostly wasted (0xf2-ish).
                c.hwpf_useless += 1
            now += wait + hit_ns
    else:
        backend = ctx.load_backend
        qd, lat, _ = backend.fill_line(line, now, demand=True)
        stall = qd + lat / backend.mlp
        c.load_misses += 1
        c.load_stall_ns += stall
        now += stall + hit_ns
        ctx.cache.insert(line, now, DEMAND, used=True)
    ctx.clock = now
    # The demand access trains the streamer *after* being served.
    _issue_hw_prefetches(ctx, line)


def _store(ctx: ThreadContext, addr: int) -> None:
    cpu = ctx.hw.cpu
    ctx.counters.stores += 1
    now = ctx.clock + cpu.store_issue_cycles * cpu.ns_per_cycle
    ctx.store_backend.write_line(addr & ~63, now)
    # Non-temporal stores are posted; only severe backpressure
    # (write-pipe backlog beyond the configured WPQ allowance) stalls
    # the core.
    backlog = ctx.store_backend.write_pipe.free_at - now
    if backlog > cpu.wpq_backpressure_ns:
        stall = backlog - cpu.wpq_backpressure_ns
        ctx.counters.store_stall_ns += stall
        now += stall
    ctx.clock = now


def _swpf(ctx: ThreadContext, addr: int) -> None:
    cpu = ctx.hw.cpu
    ctx.counters.swpf_issued += 1
    now = ctx.clock + cpu.swpf_issue_cycles * cpu.ns_per_cycle
    line = addr & ~63
    if ctx.cache.lookup(line) is None:
        backend = ctx.load_backend
        qd, lat, dlat = backend.fill_line(line, now, demand=False)
        ctx.cache.insert(line, now + qd + lat, SWPF_SRC,
                         promo_ns=dlat / backend.mlp)
    ctx.clock = now
    # Software prefetches also train the streamer: their "training
    # effect" (§5.9).
    _issue_hw_prefetches(ctx, line)


def step(ctx: ThreadContext) -> None:
    """Execute the op at ``ctx.pc``; leaves ``pc`` on it if it raises."""
    op = ctx.trace.opcodes[ctx.pc]
    arg = ctx.trace.args[ctx.pc]
    if op == LOAD:
        _load(ctx, int(arg))
    elif op == COMPUTE:
        cpu = ctx.hw.cpu
        ns = arg * cpu.ns_per_cycle * cpu.simd_factor
        ctx.counters.compute_ns += ns
        ctx.clock += ns
    elif op == STORE:
        _store(ctx, int(arg))
    elif op == SWPF:
        _swpf(ctx, int(arg))
    elif op == FENCE:
        ctx.clock = ctx.store_backend.drain_writes(ctx.clock)
    else:
        raise ValueError(f"unknown opcode {op}")
    ctx.pc += 1


def reference_simulate(traces, hw, contexts=None,
                       drain: bool = True) -> SimResult:
    """``simulate(traces, hw, contexts=..., drain=...)``, one op per turn.

    The thread with the smallest ``(clock, index)`` always runs next,
    which keeps global time monotonic across the shared backends.
    """
    if contexts is None:
        counters = Counters()
        load_b, store_b = make_backends(hw, counters)
        contexts = [ThreadContext(hw, counters, load_b, store_b, trace=t)
                    for t in traces]
    heap = [(ctx.clock, i) for i, ctx in enumerate(contexts)
            if not ctx.done]
    heapq.heapify(heap)
    while heap:
        _, idx = heapq.heappop(heap)
        ctx = contexts[idx]
        step(ctx)
        if not ctx.done:
            heapq.heappush(heap, (ctx.clock, idx))
    if drain:
        for ctx in contexts:
            ctx.cache.drain()
    times = [ctx.clock for ctx in contexts]
    return SimResult(
        makespan_ns=max(times),
        thread_times_ns=times,
        counters=contexts[0].counters,
        data_bytes=sum(ctx.trace.data_bytes for ctx in contexts),
    )


def assert_identical(res: SimResult, ref: SimResult) -> None:
    """Bit-for-bit equality of two results, field by field."""
    assert res.makespan_ns == ref.makespan_ns
    assert res.thread_times_ns == ref.thread_times_ns
    assert res.data_bytes == ref.data_bytes
    assert asdict(res.counters) == asdict(ref.counters)
