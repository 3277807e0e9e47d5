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

:meth:`ThreadContext.run` is the one interpreter. The per-op semantics
of the cache (:class:`~repro.simulator.cache.CoreCache`), the streamer
(:class:`~repro.simulator.streamprefetcher.StreamPrefetcher`) and the
store path (``write_line``) are inlined into one loop with hot state in
locals; every line fill — demand, software prefetch, hardware
prefetch — is one call into the load backend's ``fill_line``
(:mod:`repro.simulator.memory`), the only implementation of the PM
read buffer and the fill pipes. Single-thread runs call it once; the
multicore scheduler (:mod:`repro.simulator.multicore`) calls it once
per scheduling turn with a clock ``limit``; the fast-forward layer
calls it period by period with an op bound ``until``.
"""

from __future__ import annotations

import math

from repro.simulator.cache import CoreCache, DEMAND, HWPF, SWPF as SWPF_SRC, _Line
from repro.simulator.counters import Counters
from repro.simulator.params import HardwareConfig
from repro.simulator.streamprefetcher import StreamPrefetcher, _Stream
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

    def run(self, until: int | None = None,
            limit: float = math.inf) -> float:
        """Execute the trace (to ``until``, if given); returns the clock.

        The core-side semantics (cache lookup and insertion, streamer
        training, the store path) are inlined into one loop with their
        hot state — core counters included — in locals. Line fills are
        not: each is one call to the load backend's ``fill_line``,
        which returns ``(wait, latency, demand_latency)`` and keeps its
        own pipes, read buffer and counters. A demand miss stalls
        ``wait + latency / mlp``; a prefetch arrives at ``issue + wait
        + latency`` and can be promoted at ``demand_latency / mlp``.
        ``tests/reference_interpreter.py`` spells the same semantics
        out through the model methods and pins this loop to them, bit
        for bit.

        Two stop bounds, both composing bit-identically with one full
        run because all hot state is written back at every return:

        * ``until`` is an absolute op index bound (clamped to the trace
          length): the fast-forward layer interprets period by period
          through it;
        * ``limit`` is a clock bound: an op is started only while the
          clock is ``<= limit``. The multicore scheduler sets it to the
          point where another thread becomes the earliest.
        """
        n = len(self.trace.opcodes)
        end = n if until is None else min(until, n)
        if self.pc >= end:
            return self.clock
        load_backend = self.load_backend
        store_backend = self.store_backend
        opcodes = self.trace.opcodes
        args = self.trace.args
        i = self.pc
        c = self.counters

        # Core-side hot state.
        lines = self.cache._lines
        cache_get = lines.get
        cache_mte = lines.move_to_end
        cache_pop = lines.popitem
        cache_cap = self.cache.capacity
        ns_per_cycle = self._ns_per_cycle
        simd_factor = self._simd_factor
        hit_ns = self._hit_ns
        load_issue_ns = self._load_issue_ns
        store_issue_ns = self._store_issue_ns
        swpf_issue_ns = self._swpf_issue_ns
        wpq_ns = self._wpq_ns

        # Streamer (per-core) hot state.
        pf = self.prefetcher
        pf_enabled = pf.enabled
        pf_cfg = pf.config
        pf_page_bytes = pf_cfg.page_bytes
        pf_max_streams = pf_cfg.max_streams
        pf_train = pf_cfg.train_threshold
        pf_max_dist = pf_cfg.max_distance
        pf_ramp = pf_cfg.ramp_div
        pf_last_line = pf_page_bytes // 64 - 1
        table = pf._table
        table_get = table.get
        table_mte = table.move_to_end
        table_pop = table.popitem

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
        c_app_read_bytes = c.app_read_bytes
        c_write_bytes = c.write_bytes

        clock = self.clock
        try:
            while i < end and clock <= limit:
                op = opcodes[i]
                arg = args[i]
                i += 1
                if op == LOAD:
                    c_loads += 1
                    c_app_read_bytes += 64
                    now = clock + load_issue_ns
                    line = int(arg) & ~63
                    ent = cache_get(line)
                    if ent is not None:
                        cache_mte(line)
                        ent.used = True
                        if ent.arrival_ns <= now:
                            c_load_cache_hits += 1
                            if ent.source == HWPF:
                                c_hwpf_useful += 1
                            now += hit_ns
                        else:
                            # In-flight prefetch: the demand promotes it,
                            # so the wait is the smaller of its remaining
                            # time and a demand-priority fill's cost.
                            wait = min(ent.arrival_ns - now, ent.promo_ns)
                            c_load_late_prefetch += 1
                            c_load_stall_ns += wait
                            if ent.source == SWPF_SRC:
                                c_swpf_late += 1
                            elif ent.source == HWPF:
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
                            if not ev.used:
                                if ev.source == HWPF:
                                    c_hwpf_useless += 1
                                elif ev.source == SWPF_SRC:
                                    c_swpf_useless += 1
                        lines[line] = _Line(now, DEMAND, True, 0.0)
                    clock = now
                    if not pf_enabled:
                        continue
                elif op == COMPUTE:
                    ns = arg * ns_per_cycle * simd_factor
                    c_compute_ns += ns
                    clock += ns
                    continue
                elif op == STORE:
                    c_stores += 1
                    now = clock + store_issue_ns
                    c_write_bytes += 64
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
                elif op == SWPF:
                    c_swpf_issued += 1
                    now = clock + swpf_issue_ns
                    line = int(arg) & ~63
                    ent = cache_get(line)
                    if ent is None:
                        wait, lat, dlat = fill_line(line, now, False)
                        arrival = now + wait + lat
                        promo = dlat / mlp
                        if len(lines) >= cache_cap:
                            _, ev = cache_pop(last=False)
                            if not ev.used:
                                if ev.source == HWPF:
                                    c_hwpf_useless += 1
                                elif ev.source == SWPF_SRC:
                                    c_swpf_useless += 1
                        lines[line] = _Line(arrival, SWPF_SRC, False, promo)
                    else:
                        cache_mte(line)
                    clock = now
                    # Software prefetches train the streamer too: their
                    # "training effect" (§5.9).
                    if not pf_enabled:
                        continue
                elif op == FENCE:
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
                        if evicted.confidence < pf_train:
                            c_streams_evicted_untrained += 1
                    table[page] = _Stream(pline, 0, pline)
                    c_streams_allocated += 1
                    continue
                table_mte(page)
                last = stream.last_line
                if pline == last + 1 or pline == last + 2:
                    stream.confidence += 1
                    stream.last_line = pline
                elif pline <= last:
                    pass
                else:
                    conf = stream.confidence - 2
                    stream.confidence = conf if conf > 0 else 0
                    stream.last_line = pline
                    continue
                conf = stream.confidence
                if conf < pf_train:
                    continue
                distance = (conf - pf_train) // pf_ramp + 1
                if distance > pf_max_dist:
                    distance = pf_max_dist
                target = pline + distance
                if target > pf_last_line:
                    target = pf_last_line
                first = stream.max_prefetched + 1
                if first <= pline:
                    first = pline + 1
                if first > target:
                    continue
                stream.max_prefetched = target
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
                        if arrival < ent.arrival_ns:
                            ent.arrival_ns = arrival
                        ent.promo_ns = (min(ent.promo_ns, promo)
                                        if ent.promo_ns else promo)
                        cache_mte(tgt)
                    else:
                        if len(lines) >= cache_cap:
                            _, ev = cache_pop(last=False)
                            if not ev.used:
                                if ev.source == HWPF:
                                    c_hwpf_useless += 1
                                elif ev.source == SWPF_SRC:
                                    c_swpf_useless += 1
                        lines[tgt] = _Line(arrival, HWPF, False, promo)
        finally:
            self.pc = i
            self.clock = clock
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
            c.app_read_bytes = c_app_read_bytes
            c.write_bytes = c_write_bytes
        return clock

