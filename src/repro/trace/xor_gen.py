"""Trace generation for XOR-schedule (bitmatrix) codes.

Zerasure/Cerasure execute an XOR program over bit-sliced *packets*
(block_bytes / w bytes each). The memory signature differs from ISA-L
in exactly the ways the paper highlights (§2.2, §5.2): source packets
are re-read once per use (multiple ones per bitmatrix column), the
access order follows the schedule rather than a sequential sweep (so
the L2 streamer rarely trains), and the compute is XOR-only AVX256.

Parity and temporary packets are held as in-cache accumulators; parity
packets are flushed with non-temporal stores at the end of each stripe.
The program runs once, for stripe 0 on thread 0's layout;
:func:`repro.trace.tile` places that kernel at the thread's stripes.
Unlike the ISA-L family (:mod:`repro.trace.isal_gen`), XOR kernels are
not memoized: a schedule is no cheap exact key, so each call rebuilds
its kernel.
"""

from __future__ import annotations

from dataclasses import replace

from repro.simulator.params import CPUConfig
from repro.trace.layout import StripeLayout, LINE
from repro.trace.ops import LOAD, STORE, COMPUTE, FENCE, Kernel, Trace, tile
from repro.trace.workload import Workload
from repro.xorsched.schedule import XorSchedule


def _packet_addrs(layout: StripeLayout, blocks: list[int],
                  w: int) -> list[list[int]]:
    """Stripe-0 line addresses of packet ``i * w + p`` (packet p of
    ``blocks[i]``).

    Packet p occupies bytes [p*pkt, (p+1)*pkt) of its block; sub-line
    packets share cachelines (the loads then mostly hit L2).
    """
    pkt_bytes = layout.block_bytes // w
    return [[layout.block_addr(0, b) + l * LINE
             for l in range(p * pkt_bytes // LINE,
                            (p * pkt_bytes + pkt_bytes - 1) // LINE + 1)]
            for b in blocks for p in range(w)]


def _emit_parity(layout: StripeLayout, k: int, m: int, op: int, add) -> None:
    """One ``op`` (LOAD or STORE) per line of the m parity blocks."""
    for i in range(m):
        base = layout.block_addr(0, k + i)
        for l in range(layout.lines_per_block):
            add(op, base + l * LINE)


def xor_schedule_trace(wl: Workload, cpu: CPUConfig, schedule: XorSchedule,
                       thread: int = 0) -> Trace:
    """Generate one thread's trace for an XOR program.

    ``schedule`` operates on packet ids; data packets map to addresses
    inside the stripe layout, while parity/temp packets are cache-
    resident accumulators (no load traffic until the final flush).
    """
    w = schedule.w
    k, m = schedule.k, schedule.m
    if (k, m) != (wl.k, wl.m):
        raise ValueError(
            f"schedule geometry ({k},{m}) != workload ({wl.k},{wl.m})")
    layout = StripeLayout(wl.k, wl.m, wl.block_bytes)
    if wl.block_bytes < w:
        raise ValueError(f"block must be >= w={w} bytes for bitmatrix codes")
    packets = _packet_addrs(layout, list(range(k)), w)
    cycles = cpu.xor_cycles_per_line * max(1, wl.block_bytes // w // LINE) \
        + cpu.loop_overhead_cycles
    kernel = Trace(data_bytes=wl.stripe_data_bytes)
    add = kernel.add
    kw = k * w
    for op, dst, src in schedule.ops:
        if src < kw:
            for addr in packets[src]:
                add(LOAD, addr)
        # dst (parity/temp) stays register/cache resident.
        add(COMPUTE, cycles)
    # Flush parity packets with NT stores.
    _emit_parity(layout, k, m, STORE, add)
    add(FENCE, 0)
    return tile(Kernel(kernel), wl.stripes_per_thread,
                replace(layout, thread=thread))


def xor_decomposed_trace(wl: Workload, cpu: CPUConfig,
                         group_schedules: list[tuple[XorSchedule, list[int]]],
                         thread: int = 0) -> Trace:
    """Decomposed XOR encoding (Cerasure's wide-stripe strategy).

    Each ``(schedule, cols)`` pair is one narrow pass over the listed
    source columns; passes after the first reload the partial parity
    (extra load traffic) and every pass rewrites it (amplified write
    traffic) — the decompose costs the paper quantifies in §5.2/§5.7.
    """
    layout = StripeLayout(wl.k, wl.m, wl.block_bytes)
    kernel = Trace(data_bytes=wl.stripe_data_bytes)
    add = kernel.add
    for p, (sched, cols) in enumerate(group_schedules):
        w = sched.w
        if sched.m != wl.m or sched.k != len(cols):
            raise ValueError("group schedule geometry mismatch")
        packets = _packet_addrs(layout, cols, w)
        cycles = cpu.xor_cycles_per_line * max(1, wl.block_bytes // w // LINE) \
            + cpu.loop_overhead_cycles
        if p:  # reload partial parity written by the previous pass
            _emit_parity(layout, wl.k, wl.m, LOAD, add)
        kw = sched.k * w
        for op, dst, src in sched.ops:
            if src < kw:
                for addr in packets[src]:
                    add(LOAD, addr)
            add(COMPUTE, cycles)
        _emit_parity(layout, wl.k, wl.m, STORE, add)
    add(FENCE, 0)
    return tile(Kernel(kernel), wl.stripes_per_thread,
                replace(layout, thread=thread))
