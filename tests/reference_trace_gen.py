"""Reference trace generators: every stripe emitted op by op.

These are the generators as they stood before trace generation became
one stripe kernel tiled by array arithmetic (:func:`repro.trace.tile`):
each loops over its stripes and builds every op of every stripe through
:meth:`Trace.add`. They are the oracle ``tests/test_trace_tiling.py``
pins the tiled generators to, with ``==`` on ``content_key()`` and
``data_bytes``. Keep them as they are; the row-order, source/dest block
and compute-cycle helpers are shared with the package.
"""

from __future__ import annotations

from repro.simulator.params import CPUConfig
from repro.trace.isal_gen import (
    XP_LINES, IsalVariant, _dest_blocks, _per_line_compute_cycles,
    _row_order, _source_blocks,
)
from repro.trace.layout import LINE, PAGE, StripeLayout
from repro.trace.ops import COMPUTE, FENCE, LOAD, STORE, SWPF, Trace
from repro.trace.workload import Workload
from repro.xorsched.schedule import XorSchedule


def isal_trace(wl: Workload, cpu: CPUConfig,
               variant: IsalVariant = IsalVariant(),
               thread: int = 0, stripe_offset: int = 0) -> Trace:
    """Generate one thread's trace for the ISA-L pattern (+variants).

    ``stripe_offset`` shifts the stripe index range (the adaptive
    coordinator generates chunks incrementally; each chunk must touch
    fresh addresses).
    """
    if variant.decompose_group is not None:
        return _decomposed_trace(wl, cpu, variant, thread, stripe_offset)
    m_eff = wl.erasures if wl.op == "decode" else wl.m
    extra = wl.lrc_l or 0
    layout = StripeLayout(wl.k, wl.m, wl.block_bytes, thread=thread,
                          extra_blocks=extra)
    L = layout.lines_per_block
    k = wl.k
    per_line = _per_line_compute_cycles(wl, cpu)
    order = _row_order(L, variant.shuffle)
    trace = Trace()
    add = trace.add
    stripes = wl.stripes_per_thread

    srange = range(stripe_offset, stripe_offset + stripes)
    if variant.xpline_granularity:
        _emit_xpline_stripes(wl, layout, order, per_line, variant, add, srange)
    else:
        _emit_rowmajor_stripes(wl, layout, order, per_line, variant, add, srange)

    trace.data_bytes = stripes * wl.stripe_data_bytes
    return trace


def _emit_rowmajor_stripes(wl, layout, order, per_line, variant, add, srange):
    k = wl.k
    sources = _source_blocks(wl)
    dests = _dest_blocks(wl)
    L = len(order)
    total = L * k
    d = variant.sw_prefetch_distance
    d_first = variant.bf_first_line_distance

    # Address arithmetic hoisted out of the per-op loop (this function
    # emits every op of every ISA-L-family trace):
    # line_addr(s, b, r) == thread_base + (s*bps + b)*block_stride + r*64.
    bps = layout.blocks_per_stripe
    block_stride = layout.pages_per_block * PAGE
    thread_base = layout.thread_base
    stripe_stride = bps * block_stride
    src_off = [b * block_stride for b in sources]
    dst_off = [b * block_stride for b in dests]
    row_off = [r * LINE for r in order]  # indexed by row position rp
    compute_cycles = per_line * k

    def elem_addr(sbase, n):
        rp, j = divmod(n, k)
        return sbase + src_off[j] + row_off[rp]

    for s in srange:
        sbase = thread_base + s * stripe_stride
        for rp in range(L):
            roff = row_off[rp]
            base_n = rp * k
            for j in range(k):
                n = base_n + j
                if d is not None:
                    t = n + d
                    if t < total:
                        addr = elem_addr(sbase, t)
                        is_first = (addr // LINE) % XP_LINES == 0
                        if d_first is None or not is_first:
                            add(SWPF, addr)
                    if d_first is not None:
                        t2 = n + d_first
                        if t2 < total:
                            addr2 = elem_addr(sbase, t2)
                            if (addr2 // LINE) % XP_LINES == 0:
                                add(SWPF, addr2)
                add(LOAD, sbase + src_off[j] + roff)
            add(COMPUTE, compute_cycles)
            for doff in dst_off:
                add(STORE, sbase + doff + roff)
        add(FENCE, 0)


def _emit_xpline_stripes(wl, layout, order, per_line, variant, add, srange):
    """256 B-granularity loop expansion (§4.3.3).

    The element sequence becomes (XPLine-group, block); all lines of a
    group are consumed back-to-back so the implicit media load is used
    before eviction. Software prefetch touches only the first line per
    future group — the read buffer serves the remaining lines.
    """
    k = wl.k
    sources = _source_blocks(wl)
    dests = _dest_blocks(wl)
    L = layout.lines_per_block
    groups = [list(range(g, min(g + XP_LINES, L))) for g in range(0, L, XP_LINES)]
    ngroups = len(groups)
    # Reuse the (possibly shuffled) order at group granularity.
    gorder = _row_order(ngroups, variant.shuffle)
    d = variant.sw_prefetch_distance
    # d is expressed in row-major sequence elements (lines); one group
    # step spans XP_LINES rows, so convert to whole groups.
    dg = max(1, round(d / (XP_LINES * k))) if d is not None else None
    total = ngroups * k

    # Hoisted address arithmetic (see _emit_rowmajor_stripes).
    bps = layout.blocks_per_stripe
    block_stride = layout.pages_per_block * PAGE
    thread_base = layout.thread_base
    stripe_stride = bps * block_stride
    src_off = [b * block_stride for b in sources]
    dst_off = [b * block_stride for b in dests]
    group_line_off = [[r * LINE for r in g] for g in groups]
    group_first_off = [g[0] * LINE for g in groups]
    group_cycles = [per_line * len(g) for g in groups]

    for s in srange:
        sbase = thread_base + s * stripe_stride
        for gp in range(ngroups):
            g = gorder[gp]
            line_offs = group_line_off[g]
            cycles = group_cycles[g]
            for j in range(k):
                n = gp * k + j
                if dg is not None:
                    t = n + dg * k  # same block, dg groups ahead
                    if t < total:
                        t_gp, t_j = divmod(t, k)
                        add(SWPF, sbase + src_off[t_j]
                            + group_first_off[gorder[t_gp]])
                soff = sbase + src_off[j]
                for loff in line_offs:
                    add(LOAD, soff + loff)
                add(COMPUTE, cycles)
            for loff in line_offs:
                for doff in dst_off:
                    add(STORE, sbase + doff + loff)
        add(FENCE, 0)


def _decomposed_trace(wl: Workload, cpu: CPUConfig,
                      variant: IsalVariant, thread: int,
                      stripe_offset: int = 0) -> Trace:
    """Wide-stripe decomposition: narrow passes with parity reload.

    Pass p loads its group's data lines plus (for p > 0) the partial
    parity written by pass p-1 — the "parity reloading" and amplified
    write traffic the paper attributes to the decompose strategy.
    """
    g = variant.decompose_group
    if g is None or g < 1:
        raise ValueError("decompose_group must be a positive int")
    layout = StripeLayout(wl.k, wl.m, wl.block_bytes, thread=thread,
                          extra_blocks=wl.lrc_l or 0)
    L = layout.lines_per_block
    per_line = _per_line_compute_cycles(wl, cpu)
    sources = _source_blocks(wl)
    dests = _dest_blocks(wl)
    groups = [sources[c:c + g] for c in range(0, wl.k, g)]
    trace = Trace()
    add = trace.add
    order = _row_order(L, variant.shuffle)
    for s in range(stripe_offset, stripe_offset + wl.stripes_per_thread):
        for p, cols in enumerate(groups):
            for r in order:
                for j in cols:
                    add(LOAD, layout.line_addr(s, j, r))
                if p:
                    # Reload the partial result written by the last pass.
                    for dest in dests[:wl.erasures if wl.op == "decode" else wl.m]:
                        add(LOAD, layout.line_addr(s, dest, r))
                add(COMPUTE, per_line * len(cols))
                for dest in dests:
                    if p == len(groups) - 1 or dest < wl.k + wl.m:
                        add(STORE, layout.line_addr(s, dest, r))
        add(FENCE, 0)
    trace.data_bytes = wl.stripes_per_thread * wl.stripe_data_bytes
    return trace


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
    layout = StripeLayout(wl.k, wl.m, wl.block_bytes, thread=thread)
    if wl.block_bytes < w:
        raise ValueError(f"block must be >= w={w} bytes for bitmatrix codes")
    # Packet p of block j occupies bytes [p*pkt, (p+1)*pkt) of the block;
    # sub-line packets share cachelines (the loads then mostly hit L2).
    pkt_bytes = wl.block_bytes // w
    packet_lines = [
        range(p * pkt_bytes // LINE, (p * pkt_bytes + pkt_bytes - 1) // LINE + 1)
        for p in range(w)
    ]
    lines_per_packet = max(1, pkt_bytes // LINE)

    kw = k * w
    xor_c = cpu.xor_cycles_per_line
    ovh = cpu.loop_overhead_cycles
    trace = Trace()
    add = trace.add
    stripes = wl.stripes_per_thread
    sched_ops = schedule.ops
    for s in range(stripes):
        for op, dst, src in sched_ops:
            if src < kw:
                j, p = divmod(src, w)
                base = layout.block_addr(s, j)
                for l in packet_lines[p]:
                    add(LOAD, base + l * LINE)
            # dst (parity/temp) stays register/cache resident.
            add(COMPUTE, (xor_c * lines_per_packet) + ovh)
        # Flush parity packets with NT stores.
        for i in range(m):
            base = layout.block_addr(s, k + i)
            for l in range(layout.lines_per_block):
                add(STORE, base + l * LINE)
        add(FENCE, 0)
    trace.data_bytes = stripes * wl.stripe_data_bytes
    return trace


def xor_decomposed_trace(wl: Workload, cpu: CPUConfig,
                         group_schedules: list[tuple[XorSchedule, list[int]]],
                         thread: int = 0) -> Trace:
    """Decomposed XOR encoding (Cerasure's wide-stripe strategy).

    Each ``(schedule, cols)`` pair is one narrow pass over the listed
    source columns; passes after the first reload the partial parity
    (extra load traffic) and every pass rewrites it (amplified write
    traffic) — the decompose costs the paper quantifies in §5.2/§5.7.
    """
    layout = StripeLayout(wl.k, wl.m, wl.block_bytes, thread=thread)
    L = layout.lines_per_block
    xor_c = cpu.xor_cycles_per_line
    ovh = cpu.loop_overhead_cycles
    trace = Trace()
    add = trace.add
    for s in range(wl.stripes_per_thread):
        for p, (sched, cols) in enumerate(group_schedules):
            w = sched.w
            if sched.m != wl.m or sched.k != len(cols):
                raise ValueError("group schedule geometry mismatch")
            pkt_bytes = wl.block_bytes // w
            packet_lines = [
                range(q * pkt_bytes // LINE,
                      (q * pkt_bytes + pkt_bytes - 1) // LINE + 1)
                for q in range(w)
            ]
            if p:  # reload partial parity written by the previous pass
                for i in range(wl.m):
                    base = layout.block_addr(s, wl.k + i)
                    for l in range(L):
                        add(LOAD, base + l * LINE)
            kw = sched.k * w
            for op, dst, src in sched.ops:
                if src < kw:
                    j, q = divmod(src, w)
                    base = layout.block_addr(s, cols[j])
                    for l in packet_lines[q]:
                        add(LOAD, base + l * LINE)
                add(COMPUTE, xor_c * max(1, pkt_bytes // LINE) + ovh)
            for i in range(wl.m):
                base = layout.block_addr(s, wl.k + i)
                for l in range(L):
                    add(STORE, base + l * LINE)
        add(FENCE, 0)
    trace.data_bytes = wl.stripes_per_thread * wl.stripe_data_bytes
    return trace
