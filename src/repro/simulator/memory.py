"""Memory backends: DRAM and Optane-style PM.

Backends answer 64 B fill requests (demand or prefetch) with a
``(queue_delay_ns, service_latency_ns, demand_latency_ns)`` triple and
do the traffic accounting. Bandwidth is modelled as busy-until pipes:
each transfer occupies its pipe for ``bytes / bandwidth`` and later
requests queue behind it — under high thread counts this is what
saturates and bends the scalability curves (Fig. 7 / 13).

The PM backend additionally runs the shared XPLine read buffer: a fill
whose XPLine is resident costs only the buffer-hit latency and no media
traffic; a miss charges a 256 B media transfer (the *implicit load*)
and inserts the XPLine, possibly thrash-evicting another.

``fill_line`` is the one implementation of a line fill: the
interpreter calls it for every demand, software-prefetch and
hardware-prefetch fill. It is the simulator's hottest call, so each
backend binds it once, at construction, as a flat function: its
constants, pipes and the read buffer's dict are closure cells, and it
calls no other model method. The PM fill also binds the read buffer's
``get``/``move_to_end``/``popitem``, and serves a buffer hit with one
``get`` and one store.
"""

from __future__ import annotations

from repro.simulator.counters import Counters
from repro.simulator.params import DRAMConfig, PMConfig
from repro.simulator.readbuffer import PMReadBuffer

LINE_BYTES = 64


class _Pipe:
    """A busy-until bandwidth pipe."""

    __slots__ = ("ns_per_byte", "free_at")

    def __init__(self, bw_gbps: float):
        self.ns_per_byte = 1.0 / bw_gbps  # GB/s == bytes/ns
        self.free_at = 0.0

    def acquire(self, now: float, nbytes: int) -> float:
        """Occupy the pipe for ``nbytes``; return the queue delay."""
        start = self.free_at if self.free_at > now else now
        self.free_at = start + nbytes * self.ns_per_byte
        return start - now

    # -- fast-forward hooks ------------------------------------------------

    def rel_free(self, now: float) -> float | None:
        """Backlog relative to ``now``, or None when already drained.

        A ``free_at`` in the past is behaviorally dead — every acquire
        clamps it up to ``now`` — so it digests as a sentinel instead
        of a clock-relative offset that would never converge.
        """
        return self.free_at - now if self.free_at > now else None

    def shift(self, time_shift: float, now: float) -> None:
        """Translate a live backlog by one fast-forward jump."""
        if self.free_at > now:
            self.free_at += time_shift


class DRAMBackend:
    """Flat-latency DRAM with read/write bandwidth pipes; its
    ``fill_line(addr, now, demand) -> (queue_delay, latency,
    demand_latency)`` serves one 64 B read.

    ``demand_latency`` is what the same fill would cost at demand
    priority — the bound a promoted late prefetch converges to. DRAM
    serves both priorities at its flat latency.
    """

    def __init__(self, config: DRAMConfig, counters: Counters):
        self.config = config
        self.counters = counters
        self.read_pipe = _Pipe(config.read_bw_gbps)
        self.write_pipe = _Pipe(config.write_bw_gbps)
        self.mlp = config.mlp
        self.fill_line = self._bind_fill_line()

    def _bind_fill_line(self):
        counters = self.counters
        read_pipe = self.read_pipe
        read_step = LINE_BYTES * read_pipe.ns_per_byte
        latency_ns = self.config.latency_ns

        def fill_line(addr: int, now: float,
                      demand: bool) -> tuple[float, float, float]:
            counters.ctrl_read_bytes += LINE_BYTES
            start = read_pipe.free_at
            if start < now:
                start = now
            read_pipe.free_at = start + read_step
            return start - now, latency_ns, latency_ns

        return fill_line

    def write_line(self, addr: int, now: float) -> float:
        """Accept a 64 B non-temporal store; returns its queue delay."""
        self.counters.write_bytes += LINE_BYTES
        return self.write_pipe.acquire(now, LINE_BYTES)

    def drain_writes(self, now: float) -> float:
        """Time at which all posted writes are durable (for FENCE)."""
        return max(now, self.write_pipe.free_at)

    def pipes(self) -> tuple[_Pipe, ...]:
        """All bandwidth pipes (for fast-forward digest/relabel)."""
        return (self.read_pipe, self.write_pipe)


class PMBackend:
    """Optane-style PM: XPLine media behind a shared read buffer; its
    ``fill_line(addr, now, demand) -> (queue_delay, latency,
    demand_latency)`` serves one 64 B read.

    Every fill crosses the DDR-T bus (the ctrl pipe). A read-buffer hit
    costs the buffer-hit latency and refreshes the XPLine's LRU slot. A
    miss queues a 256 B media transfer behind the bus transfer (read
    amplification) and inserts the XPLine, evicting the least recent
    one when full; an evicted XPLine that served only its triggering
    access counts as ``buffer_evictions_unused`` (its implicit load was
    wasted). Prefetch fills that miss complete at ``media_latency *
    prefetch_latency_factor``; their ``demand_latency`` is what a
    promoted demand would pay.
    """

    def __init__(self, config: PMConfig, counters: Counters):
        self.config = config
        self.counters = counters
        self.ctrl_pipe = _Pipe(config.ctrl_bw_gbps)
        self.media_pipe = _Pipe(config.media_read_bw_gbps)
        self.write_pipe = _Pipe(config.write_bw_gbps)
        self.read_buffer = PMReadBuffer(
            config.buffer_capacity_lines, config.xpline_bytes)
        self.mlp = config.mlp
        self.fill_line = self._bind_fill_line()

    def _bind_fill_line(self):
        cfg = self.config
        counters = self.counters
        ctrl_pipe = self.ctrl_pipe
        media_pipe = self.media_pipe
        read_buffer = self.read_buffer
        entries = read_buffer._entries
        entries_get = entries.get
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        line_bytes = LINE_BYTES
        capacity = read_buffer.capacity
        xpline_bytes = cfg.xpline_bytes
        ctrl_step = LINE_BYTES * ctrl_pipe.ns_per_byte
        media_step = xpline_bytes * media_pipe.ns_per_byte
        hit_ns = cfg.buffer_hit_latency_ns
        media_ns = cfg.media_latency_ns
        media_pf_ns = media_ns * cfg.prefetch_latency_factor

        def fill_line(addr: int, now: float,
                      demand: bool) -> tuple[float, float, float]:
            counters.ctrl_read_bytes += line_bytes
            start = ctrl_pipe.free_at
            if start < now:
                start = now
            ctrl_pipe.free_at = start + ctrl_step
            qd = start - now
            xp = addr // xpline_bytes
            used = entries_get(xp)
            if used is not None:
                entries[xp] = used + 1
                move_to_end(xp)
                counters.buffer_hits += 1
                return qd, hit_ns, hit_ns
            counters.buffer_misses += 1
            t = now + qd
            mstart = media_pipe.free_at
            if mstart < t:
                mstart = t
            media_pipe.free_at = mstart + media_step
            counters.media_read_bytes += xpline_bytes
            if len(entries) >= capacity:
                _, used = popitem(last=False)
                counters.buffer_evictions += 1
                if used <= 1:
                    counters.buffer_evictions_unused += 1
            entries[xp] = 1
            return (qd + (mstart - t), media_ns if demand else media_pf_ns,
                    media_ns)

        return fill_line

    def write_line(self, addr: int, now: float) -> float:
        """Accept a 64 B non-temporal store; returns its queue delay."""
        self.counters.write_bytes += LINE_BYTES
        return self.write_pipe.acquire(now, LINE_BYTES)

    def drain_writes(self, now: float) -> float:
        """Time at which the write queue is drained (for FENCE)."""
        return max(now, self.write_pipe.free_at)

    def pipes(self) -> tuple[_Pipe, ...]:
        """All bandwidth pipes (for fast-forward digest/relabel)."""
        return (self.ctrl_pipe, self.media_pipe, self.write_pipe)
