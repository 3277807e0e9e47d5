"""Tiled trace generation against the op-by-op oracle, exactly.

Every stripe-periodic generator emits one stripe's kernel and tiles it
with :func:`repro.trace.tile`. ``tests/reference_trace_gen.py`` keeps
the generators that emitted every stripe op by op; the tiled traces
must equal them byte for byte (``content_key()`` and ``data_bytes``
with ``==``) over geometry, encode/decode/LRC, every ISA-L variant,
threads, stripe offsets and the Zerasure/Cerasure schedules.

The period contract pins fast-forward's input to the generator's
structure: with at least ``MIN_PERIODS`` stripes, ``detect_period``
finds exactly one period per stripe, the kernel's length, translated
by the layout's stripe stride.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro import Cerasure, Zerasure
from repro.libs.xor_common import build_lrc_schedule, cached_group_schedule
from repro.simulator.fastforward import MIN_PERIODS
from repro.simulator.params import CPUConfig
from repro.trace import (
    COMPUTE, FENCE, LOAD, STORE, SWPF, IsalVariant, Kernel, StripeLayout,
    Trace, Workload, detect_period, isal_trace, tile, xor_decomposed_trace,
    xor_schedule_trace,
)
from repro.trace import isal_gen

from tests import reference_trace_gen as ref

CPU = CPUConfig()
BLOCKS = [64, 1000, 1024, 4096, 5000, 8192]


def _assert_same(got: Trace, want: Trace) -> None:
    assert got.data_bytes == want.data_bytes
    assert got.content_key() == want.content_key()


def _assert_period(trace: Trace, stripes: int, layout: StripeLayout) -> None:
    if stripes < MIN_PERIODS:
        return
    found = detect_period(trace, min_periods=MIN_PERIODS)
    assert found is not None
    assert found.start == 0
    assert found.period_ops * stripes == len(trace)
    assert found.periods == stripes
    assert found.stride == layout.stripe_stride


@st.composite
def _workload(draw):
    k = draw(st.integers(1, 20))
    m = draw(st.integers(1, 6))
    bs = draw(st.sampled_from(BLOCKS))
    stripes = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["encode", "decode", "lrc"]))
    extra = {}
    if kind == "decode":
        extra = dict(op="decode", erasures=draw(st.integers(1, min(m, k))))
    elif kind == "lrc":
        extra = dict(lrc_l=draw(st.sampled_from(
            [l for l in range(1, k + 1) if k % l == 0])))
    # A remainder below one stripe must not add a stripe.
    volume = stripes * k * bs + draw(st.integers(0, k * bs - 1))
    return Workload(k=k, m=m, block_bytes=bs, data_bytes_per_thread=volume,
                    **extra)


@st.composite
def isal_case(draw):
    wl = draw(_workload())
    seq = -(-wl.block_bytes // 64) * wl.k  # sequence elements per stripe
    # Distances up to past the kernel's end (every prefetch then falls
    # off the tail) and groups up to past k (one pass).
    variant = IsalVariant(
        sw_prefetch_distance=draw(st.one_of(st.none(),
                                            st.integers(1, seq + 8))),
        bf_first_line_distance=draw(st.one_of(st.none(),
                                              st.integers(1, 2 * seq + 8))),
        shuffle=draw(st.booleans()),
        xpline_granularity=draw(st.booleans()),
        decompose_group=draw(st.one_of(st.none(),
                                       st.integers(1, wl.k + 3))),
    )
    thread = draw(st.integers(0, 15))
    offset = draw(st.one_of(st.integers(0, 64), st.integers(0, 1 << 30)))
    return wl, variant, thread, offset


def _check_isal(case) -> None:
    wl, variant, thread, offset = case
    got = isal_trace(wl, CPU, variant, thread=thread, stripe_offset=offset)
    want = ref.isal_trace(wl, CPU, variant, thread=thread,
                          stripe_offset=offset)
    _assert_same(got, want)
    layout = StripeLayout(wl.k, wl.m, wl.block_bytes, thread=thread,
                          extra_blocks=wl.lrc_l or 0)
    _assert_period(got, wl.stripes_per_thread, layout)


@lru_cache(maxsize=None)
def _library(name: str, k: int, m: int):
    return {"Zerasure": Zerasure, "Cerasure": Cerasure}[name](k, m)


@lru_cache(maxsize=None)
def _decode_schedule(name: str, k: int, m: int, erasures: int):
    return _library(name, k, m).code.decode_schedule(erasures)


@lru_cache(maxsize=None)
def _lrc_schedule(name: str, k: int, m: int, l: int):
    return build_lrc_schedule(_library(name, k, m).code, l)


@st.composite
def xor_case(draw):
    """A Zerasure/Cerasure schedule and the workload it runs on, as the
    facades pair them (decode and LRC widen or narrow m)."""
    name = draw(st.sampled_from(["Zerasure", "Cerasure"]))
    wl = draw(_workload())
    thread = draw(st.integers(0, 15))
    code = _library(name, wl.k, wl.m).code
    if wl.op == "decode":
        sched = _decode_schedule(name, wl.k, wl.m, wl.erasures)
        return wl.with_(m=wl.erasures, op="encode", erasures=0), sched, thread
    if wl.lrc_l is not None:
        sched = _lrc_schedule(name, wl.k, wl.m, wl.lrc_l)
        return wl.with_(m=wl.m + wl.lrc_l, lrc_l=None), sched, thread
    if draw(st.booleans()):
        return wl, code.encode_schedule, thread
    # Decomposed passes over column groups, up to one group of all k.
    g = draw(st.integers(1, wl.k + 3))
    key = (name, wl.k, wl.m, code.parity.tobytes())
    groups = [list(range(c, min(c + g, wl.k))) for c in range(0, wl.k, g)]
    return wl, [(cached_group_schedule(key, tuple(cols)), cols)
                for cols in groups], thread


def _check_xor(case) -> None:
    wl, sched, thread = case
    if isinstance(sched, list):
        got = xor_decomposed_trace(wl, CPU, sched, thread=thread)
        want = ref.xor_decomposed_trace(wl, CPU, sched, thread=thread)
    else:
        got = xor_schedule_trace(wl, CPU, sched, thread=thread)
        want = ref.xor_schedule_trace(wl, CPU, sched, thread=thread)
    _assert_same(got, want)
    _assert_period(got, wl.stripes_per_thread,
                   StripeLayout(wl.k, wl.m, wl.block_bytes, thread=thread))


@given(isal_case())
@settings(max_examples=150)
def test_isal_family_tiles_to_the_oracle(case):
    _check_isal(case)


@given(xor_case())
@settings(max_examples=60)
def test_xor_schedules_tile_to_the_oracle(case):
    _check_xor(case)


@pytest.mark.slow
@given(isal_case())
@settings(max_examples=2000)
def test_isal_family_tiles_to_the_oracle_soak(case):
    _check_isal(case)


@pytest.mark.slow
@given(xor_case())
@settings(max_examples=2000)
def test_xor_schedules_tile_to_the_oracle_soak(case):
    _check_xor(case)


def test_tile_shifts_only_addresses():
    kernel = Trace([(SWPF, 128.0), (LOAD, 64.0), (COMPUTE, 7.5),
                    (STORE, 4096.0), (FENCE, 0.0)], data_bytes=10)
    layout = StripeLayout(1, 1, 64, thread=3)   # stride: two pages
    out = tile(Kernel(kernel), 3, layout, first_stripe=2)
    assert out.data_bytes == 30
    assert list(out.ops) == [
        (op, arg + (3 << 44) + s * 8192
         if op in (LOAD, STORE, SWPF) else arg)
        for s in (2, 3, 4) for op, arg in kernel.ops]


@pytest.mark.parametrize("ops", [[], [(LOAD, 0.0), (COMPUTE, 1.0)]])
def test_tile_rejects_a_kernel_without_a_trailing_fence(ops):
    with pytest.raises(ValueError, match="FENCE"):
        Kernel(Trace(ops))


MEMO_WL = Workload(k=6, m=3, block_bytes=1024, data_bytes_per_thread=6 << 12)
MEMO_VARIANT = IsalVariant(sw_prefetch_distance=7, bf_first_line_distance=20)


def test_warm_kernel_memo_equals_cold():
    isal_gen._kernel.cache_clear()
    cold = isal_trace(MEMO_WL, CPU, MEMO_VARIANT, thread=5, stripe_offset=9)
    before = isal_gen._kernel.cache_info().hits
    warm = isal_trace(MEMO_WL, CPU, MEMO_VARIANT, thread=5, stripe_offset=9)
    assert isal_gen._kernel.cache_info().hits == before + 1
    assert warm == cold
    assert warm.opcodes is not cold.opcodes and warm.args is not cold.args


def test_mutating_a_trace_leaves_the_memoized_kernel_alone():
    want = isal_trace(MEMO_WL, CPU, MEMO_VARIANT, thread=2)
    got = isal_trace(MEMO_WL, CPU, MEMO_VARIANT, thread=2)
    # DIALGA's chunk loop extends its contexts' traces in place.
    got.extend(isal_trace(MEMO_WL, CPU, MEMO_VARIANT, thread=2,
                          stripe_offset=6))
    got.args[0] += 64
    got.opcodes[1] = FENCE
    assert isal_trace(MEMO_WL, CPU, MEMO_VARIANT, thread=2) == want


#: One case per field of the memo key, each differing in that field
#: alone from an earlier case (the first, or the decode case before it
#: for ``erasures``), so a key that drops a field serves a wrong kernel.
KEY_CASES = [
    (MEMO_WL.with_(erasures=2), CPU, MEMO_VARIANT),
    (MEMO_WL.with_(op="decode", erasures=2), CPU, MEMO_VARIANT),
    (MEMO_WL.with_(op="decode", erasures=1), CPU, MEMO_VARIANT),
    (MEMO_WL.with_(erasures=2), CPUConfig(gf_cycles_per_parity_line=4.0),
     MEMO_VARIANT),
    (MEMO_WL.with_(erasures=2, k=5), CPU, MEMO_VARIANT),
    (MEMO_WL.with_(erasures=2, m=4), CPU, MEMO_VARIANT),
    (MEMO_WL.with_(erasures=2, block_bytes=2048), CPU, MEMO_VARIANT),
    (MEMO_WL.with_(erasures=2, lrc_l=3), CPU, MEMO_VARIANT),
    (MEMO_WL.with_(erasures=2), CPU, MEMO_VARIANT.with_(shuffle=True)),
]


def test_memo_key_separates_everything_a_kernel_reads():
    isal_gen._kernel.cache_clear()
    for wl, cpu, variant in KEY_CASES:
        _assert_same(isal_trace(wl, cpu, variant, thread=1),
                     ref.isal_trace(wl, cpu, variant, thread=1))
    assert isal_gen._kernel.cache_info().currsize == len(KEY_CASES)


def test_kernel_memo_stays_within_its_size():
    size = isal_gen.KERNEL_MEMO_SIZE
    assert isal_gen._kernel.cache_info().maxsize == size
    for d in range(1, size + 10):
        isal_trace(MEMO_WL, CPU, IsalVariant(sw_prefetch_distance=d))
    assert isal_gen._kernel.cache_info().currsize == size
