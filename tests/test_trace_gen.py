"""Unit tests for trace generation (layout, ISA-L pattern, XOR pattern)."""

import numpy as np
import pytest

from repro.gf import gf8, matrix_to_bitmatrix
from repro.codes import RSCode
from repro.simulator.params import CPUConfig
from repro.trace import (
    LOAD, STORE, SWPF, COMPUTE, FENCE,
    IsalVariant, StripeLayout, Trace, Workload, isal_trace, xor_schedule_trace,
)
from repro.trace.isal_gen import _row_order
from repro.xorsched import naive_schedule

CPU = CPUConfig()


# -- layout --------------------------------------------------------------------

def test_layout_block_pages():
    lay = StripeLayout(4, 2, 1024)
    assert lay.lines_per_block == 16
    assert lay.pages_per_block == 1
    assert StripeLayout(4, 2, 5 * 1024).pages_per_block == 2


def test_layout_blocks_on_distinct_pages():
    lay = StripeLayout(4, 2, 1024)
    pages = {lay.block_addr(0, b) // 4096 for b in range(6)}
    assert len(pages) == 6


def test_layout_threads_disjoint():
    a = StripeLayout(4, 2, 1024, thread=0)
    b = StripeLayout(4, 2, 1024, thread=1)
    assert a.block_addr(0, 0) != b.block_addr(0, 0)
    assert a.thread_base >> 44 != b.thread_base >> 44


def test_layout_validation():
    with pytest.raises(ValueError):
        StripeLayout(4, 2, 32)
    lay = StripeLayout(4, 2, 1024)
    with pytest.raises(IndexError):
        lay.block_addr(0, 6)
    with pytest.raises(IndexError):
        lay.line_addr(0, 0, 16)


def test_layout_line_addresses_sequential():
    lay = StripeLayout(4, 2, 1024)
    assert lay.line_addr(0, 0, 1) - lay.line_addr(0, 0, 0) == 64


# -- workload --------------------------------------------------------------------

def test_workload_validation():
    with pytest.raises(ValueError):
        Workload(k=0)
    with pytest.raises(ValueError):
        Workload(k=4, op="decode")          # missing erasures
    with pytest.raises(ValueError):
        Workload(k=4, op="frobnicate")
    with pytest.raises(ValueError):
        Workload(k=4, lrc_l=3)
    with pytest.raises(ValueError):
        Workload(k=4, simd="sse2")


def test_workload_stripes():
    wl = Workload(k=8, m=4, block_bytes=1024, data_bytes_per_thread=1 << 20)
    assert wl.stripe_data_bytes == 8192
    assert wl.stripes_per_thread == 128


# -- row order / shuffle ------------------------------------------------------------

def test_row_order_plain():
    assert _row_order(8, shuffle=False) == list(range(8))


def test_row_order_shuffle_breaks_sequentiality():
    order = _row_order(64, shuffle=True)
    assert sorted(order) == list(range(64))
    diffs = np.abs(np.diff(order))
    assert not np.any(diffs <= 2)


def test_row_order_shuffle_is_static():
    assert _row_order(64, True) == _row_order(64, True)


def test_row_order_small():
    assert _row_order(4, True) == [3, 2, 1, 0]
    assert _row_order(2, True) == [0, 1]


# -- ISA-L trace ---------------------------------------------------------------------

def _wl(**kw):
    defaults = dict(k=4, m=2, block_bytes=1024, data_bytes_per_thread=8192)
    defaults.update(kw)
    return Workload(**defaults)


def test_isal_trace_op_counts():
    wl = _wl()
    t = isal_trace(wl, CPU)
    counts = t.counts()
    stripes = wl.stripes_per_thread
    L = 16
    assert counts["LOAD"] == stripes * L * wl.k
    assert counts["STORE"] == stripes * L * wl.m
    assert counts["COMPUTE"] == stripes * L
    assert counts["FENCE"] == stripes
    assert t.data_bytes == stripes * wl.k * wl.block_bytes


def test_isal_trace_row_major_addresses():
    wl = _wl(data_bytes_per_thread=4096)
    t = isal_trace(wl, CPU)
    loads = [arg for op, arg in t.ops if op == LOAD]
    lay = StripeLayout(wl.k, wl.m, wl.block_bytes)
    # First row: line 0 of each of the k blocks.
    assert loads[:4] == [lay.line_addr(0, j, 0) for j in range(4)]
    # Second row begins after k loads.
    assert loads[4] == lay.line_addr(0, 0, 1)


def test_isal_trace_decode_loads_k_stores_erasures():
    wl = _wl(op="decode", erasures=1)
    t = isal_trace(wl, CPU)
    counts = t.counts()
    stripes = wl.stripes_per_thread
    assert counts["LOAD"] == stripes * 16 * wl.k
    assert counts["STORE"] == stripes * 16 * 1


def test_isal_trace_lrc_extra_stores():
    wl = _wl(lrc_l=2)
    t = isal_trace(wl, CPU)
    counts = t.counts()
    stripes = wl.stripes_per_thread
    assert counts["STORE"] == stripes * 16 * (wl.m + 2)


def test_isal_trace_sw_prefetch_targets():
    wl = _wl(data_bytes_per_thread=4096)
    d = wl.k  # one row ahead
    t = isal_trace(wl, CPU, IsalVariant(sw_prefetch_distance=d))
    ops = t.ops
    # Each SWPF must target the address loaded exactly d loads later.
    loads = [arg for op, arg in ops if op == LOAD]
    swpfs = [arg for op, arg in ops if op == SWPF]
    total = 16 * wl.k
    assert len(swpfs) == total - d  # tail reverts to plain kernel
    for n, target in enumerate(swpfs):
        assert target == loads[n + d]


def test_isal_trace_shuffle_preserves_coverage():
    wl = _wl(data_bytes_per_thread=4096)
    base = isal_trace(wl, CPU)
    shuf = isal_trace(wl, CPU, IsalVariant(shuffle=True))
    assert sorted(a for op, a in base.ops if op == LOAD) == \
           sorted(a for op, a in shuf.ops if op == LOAD)
    assert [a for op, a in base.ops if op == LOAD] != \
           [a for op, a in shuf.ops if op == LOAD]


def test_isal_trace_bf_distances():
    wl = _wl(data_bytes_per_thread=4096)
    t = isal_trace(wl, CPU, IsalVariant(sw_prefetch_distance=4,
                                        bf_first_line_distance=8))
    loads = [arg for op, arg in t.ops if op == LOAD]
    # Walk ops: every SWPF targeting a first-line-of-XPLine must sit
    # 8 elements ahead; others 4 elements ahead.
    n = 0
    for op, arg in t.ops:
        if op == LOAD:
            n += 1
        elif op == SWPF:
            idx = loads.index(arg)
            if (arg // 64) % 4 == 0:
                assert idx == n + 8
            else:
                assert idx == n + 4


def test_isal_trace_xpline_granularity_groups_lines():
    wl = _wl(data_bytes_per_thread=4096)
    t = isal_trace(wl, CPU, IsalVariant(xpline_granularity=True))
    loads = [arg for op, arg in t.ops if op == LOAD]
    # First four loads are 4 consecutive lines of block 0.
    assert loads[1] - loads[0] == 64
    assert loads[3] - loads[0] == 192
    # Fifth load moves to block 1.
    assert loads[4] - loads[0] >= 4096
    # Same total coverage as row-major.
    base = isal_trace(wl, CPU)
    assert sorted(loads) == sorted(a for op, a in base.ops if op == LOAD)


def test_isal_trace_decompose_parity_reload():
    wl = _wl(k=8, data_bytes_per_thread=8192)
    t = isal_trace(wl, CPU, IsalVariant(decompose_group=4))
    counts = t.counts()
    stripes = wl.stripes_per_thread
    L = 16
    # 2 passes: data loads + parity reload on pass 2
    assert counts["LOAD"] == stripes * (L * 8 + L * wl.m)
    assert counts["STORE"] == stripes * L * wl.m * 2


def test_isal_trace_decompose_validation():
    with pytest.raises(ValueError):
        isal_trace(_wl(), CPU, IsalVariant(decompose_group=0))


def test_isal_trace_odd_block_size():
    wl = _wl(block_bytes=5 * 1024, data_bytes_per_thread=5 * 1024 * 4)
    t = isal_trace(wl, CPU)
    counts = t.counts()
    assert counts["LOAD"] == wl.stripes_per_thread * 80 * wl.k


# -- XOR trace ------------------------------------------------------------------------

def test_xor_trace_counts():
    code = RSCode(4, 2, matrix="cauchy")
    bm = matrix_to_bitmatrix(gf8, code.parity_rows)
    sched = naive_schedule(bm, 4, 2, 8)
    wl = _wl(data_bytes_per_thread=4096)
    t = xor_schedule_trace(wl, CPU, sched)
    counts = t.counts()
    # One COMPUTE per schedule op; one load-line set per data-source op.
    assert counts["COMPUTE"] == len(sched.ops)
    data_reads = sum(1 for op, _, src in sched.ops if src < 32)
    # 1 KB block -> 128 B packets -> 2 lines each
    assert counts["LOAD"] == data_reads * 2
    assert counts["STORE"] == 2 * 16  # m=2 parity blocks, 16 lines each
    assert counts["FENCE"] == 1


def test_xor_trace_geometry_mismatch():
    code = RSCode(4, 2, matrix="cauchy")
    bm = matrix_to_bitmatrix(gf8, code.parity_rows)
    sched = naive_schedule(bm, 4, 2, 8)
    with pytest.raises(ValueError):
        xor_schedule_trace(_wl(k=6), CPU, sched)


def test_xor_trace_small_block_subline_packets():
    code = RSCode(4, 2, matrix="cauchy")
    bm = matrix_to_bitmatrix(gf8, code.parity_rows)
    sched = naive_schedule(bm, 4, 2, 8)
    wl = _wl(block_bytes=256, data_bytes_per_thread=1024)
    t = xor_schedule_trace(wl, CPU, sched)
    loads = [a for op, a in t.ops if op == LOAD]
    lay = StripeLayout(4, 2, 256)
    # All loads fall inside data blocks.
    for a in loads:
        assert any(lay.block_addr(0, j) <= a < lay.block_addr(0, j) + 256
                   for j in range(4))
