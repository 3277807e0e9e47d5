"""ISA-L-pattern trace generation, including DIALGA's operator variants.

The baseline schedule mirrors ``ec_encode_data``'s kernel: for every
64 B row position it loads that line from each of the k source blocks,
multiply-accumulates into m parity registers, and writes the m parity
lines with non-temporal stores; a fence ends the stripe. Variants:

* ``sw_prefetch_distance=d`` — pipelined software prefetch: while
  handling sequence element N, prefetch element N+d (§4.1.2/§4.2.2).
  Tail elements revert to the plain kernel (no out-of-range prefetch).
* ``bf_first_line_distance`` — read-buffer-friendly non-uniform
  distances: targets that are the *first line of an XPLine* are
  prefetched from further back (§4.3.2).
* ``shuffle=True`` — static shuffle mapping of the row order; breaks
  the L2 streamer's sequential-pattern detection, i.e. a fine-grained
  hardware-prefetcher *off* switch (§4.2.2). Software prefetch targets
  follow the shuffled order, as in the paper.
* ``xpline_granularity=True`` — expand the loop task to 256 B: consume
  all four lines of an XPLine back-to-back so the implicit media load
  is used before eviction (§4.3.3); software prefetch then touches only
  the first line per XPLine and lets the read buffer serve the rest.
* ``decompose_group=g`` — ISA-L-D / Cerasure wide-stripe decomposition:
  multiple narrow passes with parity reload between passes.

Each generator emits stripe 0's kernel op by op and tiles it over the
thread's stripes with :func:`repro.trace.tile`. That is exact because
stripes sit a whole number of pages apart: the XPLine-first test
``(addr // 64) % 4`` gives the same answer in every stripe.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace

import numpy as np

from repro.simulator.params import CPUConfig
from repro.trace.layout import StripeLayout, LINE
from repro.trace.ops import LOAD, STORE, SWPF, COMPUTE, FENCE, Trace, tile
from repro.trace.workload import Workload

#: Lines per XPLine (256 B / 64 B).
XP_LINES = 4


@dataclass(frozen=True)
class IsalVariant:
    """Kernel-variant selection (DIALGA entry points, §4.1.2)."""

    sw_prefetch_distance: int | None = None
    bf_first_line_distance: int | None = None
    shuffle: bool = False
    xpline_granularity: bool = False
    decompose_group: int | None = None

    def with_(self, **kwargs) -> "IsalVariant":
        """Copy with fields replaced."""
        return replace(self, **kwargs)


def _row_order(lines: int, shuffle: bool) -> list[int]:
    """Row processing order; the shuffle is a *static* mapping.

    The shuffled order must defeat a head-tracking streamer in both
    directions: it opens at the block's *top* line (pinning the
    ascending head, so every later access is a neutral behind-head
    touch) and then descends by a stride >= 3 (so neither consecutive
    accesses nor the descending envelope ever step within the +-2
    sequential window). Constructively:

        sigma(i) = (lines - 1) - (i * stride mod lines),
        gcd(stride, lines) = 1,  3 <= stride <= lines - 3
    """
    if not shuffle or lines <= 2:
        return list(range(lines))
    if lines <= 6:
        return list(range(lines - 1, -1, -1))
    stride = 5
    while np.gcd(stride, lines) != 1 or lines - stride < 3:
        stride += 2
    return [(lines - 1) - ((i * stride) % lines) for i in range(lines)]


def _per_line_compute_cycles(wl: Workload, cpu: CPUConfig) -> float:
    """Kernel cycles to process one 64 B line of one source block."""
    m_eff = wl.erasures if wl.op == "decode" else wl.m
    cycles = m_eff * cpu.gf_cycles_per_parity_line + cpu.loop_overhead_cycles
    if wl.lrc_l is not None:
        # Local XOR parity: one extra XOR fold per data line.
        cycles += cpu.xor_cycles_per_line
    return cycles


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
    layout = StripeLayout(wl.k, wl.m, wl.block_bytes, thread=thread,
                          extra_blocks=wl.lrc_l or 0)
    per_line = _per_line_compute_cycles(wl, cpu)
    stripe = _xpline_stripe if variant.xpline_granularity else _rowmajor_stripe
    return tile(stripe(wl, layout, per_line, variant), wl.stripes_per_thread,
                layout.stripe_stride, stripe_offset)



def _source_blocks(wl: Workload) -> list[int]:
    """Stripe-global block ids the kernel loads, in stream order.

    Encode reads the k data blocks. Decode reads k *correct* blocks —
    the paper's §4.1.2: with the first ``erasures`` data blocks lost
    (the canonical pattern), that is the surviving data plus the first
    ``erasures`` parity blocks. The memory pattern is identical either
    way: k sequential streams.
    """
    if wl.op == "decode":
        return list(range(wl.erasures, wl.k)) + \
            [wl.k + i for i in range(wl.erasures)]
    return list(range(wl.k))


def _dest_blocks(wl: Workload) -> list[int]:
    """Stripe-global block ids the kernel stores (non-temporally)."""
    if wl.op == "decode":
        return list(range(wl.erasures))       # the rebuilt data blocks
    out = [wl.k + i for i in range(wl.m)]
    out += [wl.k + wl.m + i for i in range(wl.lrc_l or 0)]
    return out


def _rowmajor_stripe(wl, layout, per_line, variant) -> Trace:
    """Stripe 0 of the one-pass row-major kernel (+SW prefetch).

    The hottest emitter, so it appends to plain lists rather than
    through :meth:`Trace.add`: every COMPUTE follows its row's loads,
    so there is never a COMPUTE run to coalesce.
    """
    k = wl.k
    src_base = [layout.block_addr(0, b) for b in _source_blocks(wl)]
    dst_base = [layout.block_addr(0, b) for b in _dest_blocks(wl)]
    row_off = [r * LINE for r in _row_order(layout.lines_per_block,
                                            variant.shuffle)]
    # Sequence element n = rp * k + j is row position rp of source j.
    elem_addr = [base + roff for roff in row_off for base in src_base]
    total = len(elem_addr)
    d = variant.sw_prefetch_distance
    d_first = variant.bf_first_line_distance
    compute_cycles = per_line * k
    ops: list[int] = []
    args: list[float] = []
    op, arg = ops.append, args.append

    for rp, roff in enumerate(row_off):
        for n in range(rp * k, rp * k + k):
            if d is not None:
                t = n + d
                if t < total:
                    addr = elem_addr[t]
                    if d_first is None or (addr // LINE) % XP_LINES:
                        op(SWPF)
                        arg(addr)
                if d_first is not None:
                    t2 = n + d_first
                    if t2 < total and (elem_addr[t2] // LINE) % XP_LINES == 0:
                        op(SWPF)
                        arg(elem_addr[t2])
            op(LOAD)
            arg(elem_addr[n])
        op(COMPUTE)
        arg(compute_cycles)
        for base in dst_base:
            op(STORE)
            arg(base + roff)
    op(FENCE)
    arg(0)
    kernel = Trace(data_bytes=wl.stripe_data_bytes)
    kernel.opcodes, kernel.args = array("B", ops), array("d", args)
    return kernel


def _xpline_stripe(wl, layout, per_line, variant) -> Trace:
    """Stripe 0 at 256 B granularity: the loop expansion of §4.3.3.

    The element sequence becomes (XPLine-group, block); all lines of a
    group are consumed back-to-back so the implicit media load is used
    before eviction. Software prefetch touches only the first line per
    future group — the read buffer serves the remaining lines.
    """
    k = wl.k
    src_base = [layout.block_addr(0, b) for b in _source_blocks(wl)]
    dst_base = [layout.block_addr(0, b) for b in _dest_blocks(wl)]
    L = layout.lines_per_block
    groups = [[r * LINE for r in range(g, min(g + XP_LINES, L))]
              for g in range(0, L, XP_LINES)]
    ngroups = len(groups)
    # Reuse the (possibly shuffled) order at group granularity.
    gorder = _row_order(ngroups, variant.shuffle)
    d = variant.sw_prefetch_distance
    # d is expressed in row-major sequence elements (lines); one group
    # step spans XP_LINES rows, so convert to whole groups.
    dg = max(1, round(d / (XP_LINES * k))) if d is not None else None
    kernel = Trace(data_bytes=wl.stripe_data_bytes)
    add = kernel.add

    for gp, g in enumerate(gorder):
        line_offs = groups[g]
        cycles = per_line * len(line_offs)
        for base in src_base:
            if dg is not None and gp + dg < ngroups:
                # Same block, dg groups ahead.
                add(SWPF, base + groups[gorder[gp + dg]][0])
            for loff in line_offs:
                add(LOAD, base + loff)
            add(COMPUTE, cycles)
        for loff in line_offs:
            for base in dst_base:
                add(STORE, base + loff)
    add(FENCE, 0)
    return kernel


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
    per_line = _per_line_compute_cycles(wl, cpu)
    base = [layout.block_addr(0, b) for b in range(layout.blocks_per_stripe)]
    sources = _source_blocks(wl)
    dests = _dest_blocks(wl)
    reloads = dests[:wl.erasures if wl.op == "decode" else wl.m]
    groups = [sources[c:c + g] for c in range(0, wl.k, g)]
    row_off = [r * LINE for r in _row_order(layout.lines_per_block,
                                            variant.shuffle)]
    kernel = Trace(data_bytes=wl.stripe_data_bytes)
    add = kernel.add
    for p, cols in enumerate(groups):
        # Only the last pass writes the LRC extras; every pass rewrites
        # the (partial) parity.
        stores = [base[dest] for dest in dests
                  if p == len(groups) - 1 or dest < wl.k + wl.m]
        for roff in row_off:
            for j in cols:
                add(LOAD, base[j] + roff)
            if p:
                # Reload the partial result written by the last pass.
                for dest in reloads:
                    add(LOAD, base[dest] + roff)
            add(COMPUTE, per_line * len(cols))
            for b in stores:
                add(STORE, b + roff)
    add(FENCE, 0)
    return tile(kernel, wl.stripes_per_thread, layout.stripe_stride,
                stripe_offset)
