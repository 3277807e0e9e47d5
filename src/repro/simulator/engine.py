"""Trace execution with cycle/ns accounting: the simulator's interpreter.

The core model is in-order with bounded memory-level parallelism:
demand misses cost ``latency / mlp`` (the OOO window overlaps a few
outstanding misses — fewer on PM, whose long latency exceeds the
window) plus any bandwidth queueing, which is never discounted.
Hardware prefetches triggered by an access are issued *asynchronously*:
they record an arrival time in the cache; a later demand to that line
pays only the residual wait (or nothing, if it already arrived). This
is exactly the latency-hiding mechanism whose failure modes the paper
studies.

:func:`interpret` is the one interpreter. The per-op semantics of the
cache (:class:`~repro.simulator.cache.CoreCache`), the streamer
(:class:`~repro.simulator.streamprefetcher.StreamPrefetcher`) and the
store path (``write_line``) are inlined into one loop with hot state in
locals. Cache lines and streams are plain lists, so an insert builds a
list literal and calls no constructor. Every line fill — demand,
software prefetch, hardware prefetch — is one call into the load
backend's ``fill_line`` (:mod:`repro.simulator.memory`), the only
implementation of the PM read buffer and the fill pipes. One call
runs a list of thread contexts over their shared memory, switching
threads inside the loop; the multicore scheduler
(:mod:`repro.simulator.multicore`) makes one call per simulation. A single thread is its N=1 case:
:meth:`ThreadContext.run` is one call on ``[self]``, and the
fast-forward layer makes it period by period with an op bound
``until``.
"""

from __future__ import annotations

import heapq
import math

from repro.simulator.cache import CoreCache, DEMAND, HWPF, SWPF as SWPF_SRC
from repro.simulator.counters import Counters
from repro.simulator.params import HardwareConfig
from repro.simulator.streamprefetcher import StreamPrefetcher
from repro.trace.ops import LOAD, STORE, SWPF, COMPUTE, FENCE, Trace


class ThreadContext:
    """Execution state of one simulated thread (one core).

    The caches and prefetcher are private (per-core); the memory
    backends may be shared between contexts (see
    :mod:`repro.simulator.multicore`).
    """

    def __init__(self, hw: HardwareConfig, counters: Counters,
                 load_backend, store_backend,
                 trace: Trace | None = None):
        self.hw = hw
        self.counters = counters
        self.load_backend = load_backend
        self.store_backend = store_backend
        self.cache = CoreCache(hw.cache.capacity_lines, counters)
        self.prefetcher = StreamPrefetcher(hw.prefetcher, counters)
        self.clock = 0.0
        self.trace = trace or Trace()
        self.pc = 0
        # hot-path constants
        self._ns_per_cycle = hw.cpu.ns_per_cycle
        self._simd_factor = hw.cpu.simd_factor
        self._hit_ns = hw.cache.hit_latency_ns
        self._load_issue_ns = hw.cpu.load_issue_cycles * self._ns_per_cycle
        self._store_issue_ns = hw.cpu.store_issue_cycles * self._ns_per_cycle
        self._swpf_issue_ns = hw.cpu.swpf_issue_cycles * self._ns_per_cycle
        self._wpq_ns = hw.cpu.wpq_backpressure_ns

    @property
    def done(self) -> bool:
        """True when the whole trace has executed."""
        return self.pc >= len(self.trace.opcodes)

    def run(self, until: int | None = None) -> float:
        """Execute the trace (to op index ``until``, if given); returns
        the clock.

        One :func:`interpret` call on this context alone. ``until`` is
        clamped to the trace length; chunked calls compose
        bit-identically with one full run, which is how the
        fast-forward layer interprets period by period.
        """
        interpret((self,), until)
        return self.clock


def interpret(contexts, until: int | None = None) -> None:
    """Execute the contexts' traces (each to ``until``, if given),
    interleaved over their shared memory.

    The thread with the smallest ``(clock, index)`` always runs next,
    so cross-thread interactions through the shared backends happen in
    causal order; a thread's turn lasts while it is still that minimum,
    which gives it exactly the ops an op-at-a-time scheduler would.

    The core-side semantics (cache lookup and insertion, streamer
    training, the store path) are inlined into one loop with their
    hot state — counters, opcodes and line sources included — in
    locals. The dispatch tests opcodes in frequency order (LOAD, SWPF,
    STORE, COMPUTE, FENCE). ``app_read_bytes`` and ``write_bytes`` are
    not bumped per op: on exit each grows by 64 B per load or store
    this call ran. Cache lines and streams are the models' plain
    lists, indexed here by the literals behind their named indices:
    a line is ``[arrival_ns, source, used, promo_ns]``
    (``cache.ARRIVAL..PROMO`` = 0..3), a stream
    ``[last_line, confidence, max_prefetched]``
    (``streamprefetcher.LAST..MAXPF`` = 0..2). Line fills are not
    inlined: each is one call to the load backend's ``fill_line``, which
    returns ``(wait, latency, demand_latency)`` and keeps its own
    pipes, read buffer and counters. A demand miss stalls ``wait +
    latency / mlp``; a prefetch arrives at ``issue + wait + latency``
    and can be promoted at ``demand_latency / mlp``.
    ``tests/reference_interpreter.py`` spells the same semantics out
    one op at a time through the model methods and pins this loop to
    them, bit for bit.

    The contexts must share one ``Counters``, one load/store backend
    pair and one ``HardwareConfig`` (one
    :func:`~repro.simulator.multicore.make_contexts` call): those are
    taken from ``contexts[0]`` and stay in locals for the whole call.
    A thread switch saves ``pc`` and ``clock`` to the context left and
    loads the next one's cache and streamer tables and trace columns.
    Every context's ``pc``/``clock`` and the counters are written back
    before returning, also when an op raises. A turn that ends with
    its thread handed straight back ran no op, and the scheduler
    would spin on it: that raises ``RuntimeError``.
    """
    ctx = contexts[0]
    c = ctx.counters
    load_backend = ctx.load_backend
    store_backend = ctx.store_backend

    # Per-thread state, loaded on every switch.
    states = []
    heap: list[tuple[float, int]] = []
    for k, t in enumerate(contexts):
        n = len(t.trace.opcodes)
        t_end = n if until is None else min(until, n)
        lines = t.cache._lines
        table = t.prefetcher._table
        states.append((lines, lines.get, lines.move_to_end, lines.popitem,
                       table, table.get, table.move_to_end, table.popitem,
                       t.trace.opcodes, t.trace.args, t_end))
        if t.pc < t_end:
            heap.append((t.clock, k))
    if not heap:
        return
    heapq.heapify(heap)
    heappop = heapq.heappop
    heappushpop = heapq.heappushpop
    nextafter = math.nextafter
    inf = math.inf

    # Hardware constants (shared by every context).
    cache_cap = ctx.cache.capacity
    ns_per_cycle = ctx._ns_per_cycle
    simd_factor = ctx._simd_factor
    hit_ns = ctx._hit_ns
    load_issue_ns = ctx._load_issue_ns
    store_issue_ns = ctx._store_issue_ns
    swpf_issue_ns = ctx._swpf_issue_ns
    wpq_ns = ctx._wpq_ns
    pf = ctx.prefetcher
    pf_enabled = pf.enabled
    pf_cfg = pf.config
    pf_page_bytes = pf_cfg.page_bytes
    pf_max_streams = pf_cfg.max_streams
    pf_train = pf_cfg.train_threshold
    pf_max_dist = pf_cfg.max_distance
    pf_ramp = pf_cfg.ramp_div
    pf_last_line = pf_page_bytes // 64 - 1

    # Line fills are one backend call each; the backend bumps its
    # own traffic and read-buffer counters.
    fill_line = load_backend.fill_line
    mlp = load_backend.mlp

    # Store-side backend hot state (write path is identical for PM
    # and DRAM: a bandwidth pipe plus byte accounting).
    write_pipe = store_backend.write_pipe
    write_step = 64 * write_pipe.ns_per_byte

    # Counter fields hoisted into locals — slot access still pays
    # an attribute lookup per bump that a local avoids. All are
    # written back in the ``finally`` below, so chunked calls (the
    # fast-forward layer runs period-by-period via ``until``) see
    # consistent state at every boundary. Same adds in the same
    # order: bit-identical to bumping the attributes directly.
    c_loads = c.loads
    c_load_cache_hits = c.load_cache_hits
    c_load_late_prefetch = c.load_late_prefetch
    c_load_misses = c.load_misses
    c_stores = c.stores
    c_load_stall_ns = c.load_stall_ns
    c_store_stall_ns = c.store_stall_ns
    c_compute_ns = c.compute_ns
    c_hwpf_issued = c.hwpf_issued
    c_hwpf_useful = c.hwpf_useful
    c_hwpf_useless = c.hwpf_useless
    c_streams_allocated = c.streams_allocated
    c_streams_evicted_untrained = c.streams_evicted_untrained
    c_swpf_issued = c.swpf_issued
    c_swpf_late = c.swpf_late
    c_swpf_useless = c.swpf_useless
    # Every load reads and every store writes one 64 B line, so the
    # two byte counters are settled once, on exit, from the op counts
    # of this call (the counters may be bumped between calls, as a
    # fast-forward jump does). Integer adds: exact in any order.
    loads_at_entry = c_loads
    stores_at_entry = c_stores

    # Opcodes, line sources and ``int`` as locals: the dispatch tests
    # the opcodes in the order of their frequency in coding traces
    # (loads ~56%, software prefetches ~27%, stores ~11%, computes
    # ~6%, then fences), each test a local load instead of a global.
    op_load, op_swpf, op_store, op_compute, op_fence = (
        LOAD, SWPF, STORE, COMPUTE, FENCE)
    demand_src, hwpf_src, swpf_src = DEMAND, HWPF, SWPF_SRC
    to_int = int

    _, k = heappop(heap)
    ctx = contexts[k]
    (lines, cache_get, cache_mte, cache_pop, table, table_get, table_mte,
     table_pop, opcodes, args, end) = states[k]
    i = ctx.pc
    clock = ctx.clock
    try:
        while True:
            # Global time must stay monotonic across threads: a thread
            # running ahead would charge phantom queue delays on the
            # busy-until bandwidth pipes to the threads behind it. So
            # a turn lasts while the thread is still the heap minimum:
            # clock <= the next clock when it wins the index
            # tie-break, strictly below it otherwise.
            if heap:
                oc, oi = heap[0]
                limit = oc if k < oi else nextafter(oc, -inf)
            else:
                limit = inf
            while i < end and clock <= limit:
                op = opcodes[i]
                arg = args[i]
                i += 1
                if op == op_load:
                    c_loads += 1
                    now = clock + load_issue_ns
                    line = to_int(arg) & ~63
                    ent = cache_get(line)
                    if ent is not None:
                        cache_mte(line)
                        ent[2] = True
                        arrival = ent[0]
                        if arrival <= now:
                            c_load_cache_hits += 1
                            if ent[1] == hwpf_src:
                                c_hwpf_useful += 1
                            now += hit_ns
                        else:
                            # In-flight prefetch: the demand promotes it,
                            # so the wait is the smaller of its remaining
                            # time and a demand-priority fill's cost.
                            wait = arrival - now
                            promo = ent[3]
                            if promo < wait:
                                wait = promo
                            c_load_late_prefetch += 1
                            c_load_stall_ns += wait
                            src = ent[1]
                            if src == swpf_src:
                                c_swpf_late += 1
                            elif src == hwpf_src:
                                c_hwpf_useless += 1
                            now += wait + hit_ns
                    else:
                        wait, lat, _ = fill_line(line, now, True)
                        stall = wait + lat / mlp
                        c_load_misses += 1
                        c_load_stall_ns += stall
                        now += stall + hit_ns
                        # Insert (line was absent — cache_get returned
                        # None).
                        if len(lines) >= cache_cap:
                            _, ev = cache_pop(last=False)
                            if not ev[2]:
                                src = ev[1]
                                if src == hwpf_src:
                                    c_hwpf_useless += 1
                                elif src == swpf_src:
                                    c_swpf_useless += 1
                        lines[line] = [now, demand_src, True, 0.0]
                    clock = now
                    if not pf_enabled:
                        continue
                elif op == op_swpf:
                    c_swpf_issued += 1
                    now = clock + swpf_issue_ns
                    line = to_int(arg) & ~63
                    ent = cache_get(line)
                    if ent is None:
                        wait, lat, dlat = fill_line(line, now, False)
                        arrival = now + wait + lat
                        promo = dlat / mlp
                        if len(lines) >= cache_cap:
                            _, ev = cache_pop(last=False)
                            if not ev[2]:
                                src = ev[1]
                                if src == hwpf_src:
                                    c_hwpf_useless += 1
                                elif src == swpf_src:
                                    c_swpf_useless += 1
                        lines[line] = [arrival, swpf_src, False, promo]
                    else:
                        cache_mte(line)
                    clock = now
                    # Software prefetches train the streamer too: their
                    # "training effect" (§5.9).
                    if not pf_enabled:
                        continue
                elif op == op_store:
                    c_stores += 1
                    now = clock + store_issue_ns
                    start = write_pipe.free_at
                    if start < now:
                        start = now
                    free_at = start + write_step
                    write_pipe.free_at = free_at
                    # Non-temporal stores are posted: only write-pipe
                    # backlog beyond the WPQ allowance stalls the core.
                    backlog = free_at - now
                    if backlog > wpq_ns:
                        stall = backlog - wpq_ns
                        c_store_stall_ns += stall
                        now += stall
                    clock = now
                    continue
                elif op == op_compute:
                    ns = arg * ns_per_cycle * simd_factor
                    c_compute_ns += ns
                    clock += ns
                    continue
                elif op == op_fence:
                    free_at = write_pipe.free_at
                    if free_at > clock:
                        clock = free_at
                    continue
                else:  # pragma: no cover - defensive
                    i -= 1
                    raise ValueError(f"unknown opcode {op}")

                # Streamer training + hardware-prefetch issue (inlined
                # ``StreamPrefetcher.on_access``); reached after a LOAD
                # has been served and after every SWPF.
                page = line // pf_page_bytes
                pline = (line % pf_page_bytes) // 64
                stream = table_get(page)
                if stream is None:
                    if len(table) >= pf_max_streams:
                        _, evicted = table_pop(last=False)
                        if evicted[1] < pf_train:
                            c_streams_evicted_untrained += 1
                    table[page] = [pline, 0, pline]
                    c_streams_allocated += 1
                    continue
                table_mte(page)
                last = stream[0]
                if pline == last + 1 or pline == last + 2:
                    conf = stream[1] + 1
                    stream[1] = conf
                    stream[0] = pline
                elif pline <= last:
                    conf = stream[1]
                else:
                    conf = stream[1] - 2
                    stream[1] = conf if conf > 0 else 0
                    stream[0] = pline
                    continue
                if conf < pf_train:
                    continue
                distance = (conf - pf_train) // pf_ramp + 1
                if distance > pf_max_dist:
                    distance = pf_max_dist
                target = pline + distance
                if target > pf_last_line:
                    target = pf_last_line
                first = stream[2] + 1
                if first <= pline:
                    first = pline + 1
                if first > target:
                    continue
                stream[2] = target
                c_hwpf_issued += target - first + 1
                base = page * pf_page_bytes
                for l in range(first, target + 1):
                    tgt = base + l * 64
                    # Prefetch-priority fill + insert.
                    wait, lat, dlat = fill_line(tgt, clock, False)
                    arrival = clock + wait + lat
                    promo = dlat / mlp
                    ent = cache_get(tgt)
                    if ent is not None:
                        if arrival < ent[0]:
                            ent[0] = arrival
                        old = ent[3]
                        if not old or promo < old:
                            ent[3] = promo
                        cache_mte(tgt)
                    else:
                        if len(lines) >= cache_cap:
                            _, ev = cache_pop(last=False)
                            if not ev[2]:
                                src = ev[1]
                                if src == hwpf_src:
                                    c_hwpf_useless += 1
                                elif src == swpf_src:
                                    c_swpf_useless += 1
                        lines[tgt] = [arrival, hwpf_src, False, promo]

            ctx.pc = i
            ctx.clock = clock
            if i < end:
                # The turn ended because another thread became the
                # minimum, so the push cannot come straight back out;
                # if it does, the turn ran no op and the next would
                # not either: a scheduling bug, which must not spin.
                _, nk = heappushpop(heap, (clock, k))
                if nk == k:
                    raise RuntimeError(
                        f"interpret: thread {k} was handed back an empty "
                        f"turn at op {i} (clock {clock!r})")
                k = nk
            elif heap:
                _, k = heappop(heap)
            else:
                return
            ctx = contexts[k]
            (lines, cache_get, cache_mte, cache_pop, table, table_get,
             table_mte, table_pop, opcodes, args, end) = states[k]
            i = ctx.pc
            clock = ctx.clock
    finally:
        ctx.pc = i
        ctx.clock = clock
        c.loads = c_loads
        c.load_cache_hits = c_load_cache_hits
        c.load_late_prefetch = c_load_late_prefetch
        c.load_misses = c_load_misses
        c.stores = c_stores
        c.load_stall_ns = c_load_stall_ns
        c.store_stall_ns = c_store_stall_ns
        c.compute_ns = c_compute_ns
        c.hwpf_issued = c_hwpf_issued
        c.hwpf_useful = c_hwpf_useful
        c.hwpf_useless = c_hwpf_useless
        c.streams_allocated = c_streams_allocated
        c.streams_evicted_untrained = c_streams_evicted_untrained
        c.swpf_issued = c_swpf_issued
        c.swpf_late = c_swpf_late
        c.swpf_useless = c_swpf_useless
        c.app_read_bytes += 64 * (c_loads - loads_at_entry)
        c.write_bytes += 64 * (c_stores - stores_at_entry)
