"""The simulation memo keys on page-rebased traces.

:func:`repro.parallel.cache.rebased` moves every LOAD/SWPF address down
by one common multiple of ``G = lcm(page, XPLine, 64 B)`` and zeroes
every STORE address. The memo may serve one result for two runs only
if they simulate identically, so the property pinned here is: equal
rebased keys imply equal ``SimResult``s (makespan, thread times, every
counter), and a shift by a multiple of ``G`` does give equal keys. A
grain finer than the page fails it: the streamer's pages are then cut
at other lines.
"""

import hashlib
import math

from hypothesis import given, settings, strategies as st

from repro import DialgaEncoder, HardwareConfig, Workload
from repro.libs import ISAL
from repro.parallel import (
    SimCache,
    fingerprint,
    sim_cache,
    sim_key,
    trace_fingerprint,
)
from repro.parallel.cache import rebased
from repro.simulator import multicore
from repro.simulator.params import CacheConfig
from repro.trace.layout import StripeLayout
from repro.trace.ops import (COMPUTE, FENCE, LOAD, STORE, SWPF, Kernel, Trace,
                             tile)

from tests.reference_interpreter import assert_identical

PAGE_LINES = 64
SPAN_LINES = 3 * PAGE_LINES


def _hw(load_source, tiny):
    hw = HardwareConfig().with_(load_source=load_source,
                                store_target=load_source)
    if tiny:
        hw = hw.with_(cache=CacheConfig(l2_kb=1)).with_pm(read_buffer_kb=1)
        hw = hw.with_prefetcher(max_streams=2)
    return hw


def _grain(hw):
    return math.lcm(hw.prefetcher.page_bytes, hw.pm.xpline_bytes, 64)


def _key(traces, hw, fastforward=False):
    return sim_key(rebased(traces, hw), hw, fastforward=fastforward)


def _shifted(trace, shift, stores=None):
    """``trace`` with LOAD/SWPF addresses moved by ``shift`` bytes and
    STORE addresses taken in turn from ``stores`` (kept if None)."""
    stores = iter(stores or ())
    ops = []
    for op, arg in trace.ops:
        if op in (LOAD, SWPF):
            arg += shift
        elif op == STORE:
            arg = next(stores, arg)
        ops.append((op, arg))
    return Trace(ops=ops, data_bytes=trace.data_bytes)


_addr = st.integers(0, SPAN_LINES - 1).map(lambda line: line * 64)
_single_op = st.one_of(
    st.tuples(st.just(LOAD), _addr),
    st.tuples(st.just(STORE), _addr),
    st.tuples(st.just(SWPF), _addr),
    st.tuples(st.just(COMPUTE), st.sampled_from([0.0, 1.0, 33.0, 1000.0])),
    st.tuples(st.just(FENCE), st.just(0.0)),
)
#: Ascending runs train the streamer, and wrap across page edges.
_run = st.tuples(st.sampled_from([LOAD, SWPF]),
                 st.integers(0, SPAN_LINES - 1),
                 st.integers(4, 24)).map(
    lambda r: [(r[0], ((r[1] + j) % SPAN_LINES) * 64) for j in range(r[2])])
_ops = st.lists(st.one_of(_single_op.map(lambda op: [op]), _run),
                min_size=1, max_size=10).map(
    lambda segs: [op for s in segs for op in s])


@st.composite
def _periodic_ops(draw):
    """A random kernel tiled 20-30 times, one page apart: long enough
    for fast-forward to try a jump."""
    kernel = draw(st.lists(_single_op, min_size=2, max_size=8))
    ops = []
    for p in range(draw(st.integers(20, 30))):
        for op, arg in kernel:
            if op in (LOAD, STORE, SWPF):
                arg += p * PAGE_LINES * 64
            ops.append((op, arg))
        ops.append((FENCE, 0.0))
    return ops


@st.composite
def _case(draw):
    hw = _hw(draw(st.sampled_from(["pm", "dram"])), draw(st.booleans()))
    threads = draw(st.integers(1, 3))
    per_thread = [draw(st.one_of(_ops, _periodic_ops()))
                  for _ in range(threads)]
    traces = [Trace(ops=ops, data_bytes=64 * len(ops)) for ops in per_thread]
    # Mostly whole grains (the memo must hit); sometimes any line
    # count (the memo must miss, unless the runs are equal anyway).
    lines = draw(st.one_of(
        st.integers(0, 1 << 20).map(
            lambda n: n * _grain(hw) // 64),
        st.integers(1, 4 * PAGE_LINES)))
    rnd = draw(st.randoms(use_true_random=False))
    stores = [[rnd.randrange(1 << 30) * 64.0 for _ in range(len(t))]
              for t in traces]
    moved = [_shifted(t, lines * 64, s) for t, s in zip(traces, stores)]
    return hw, traces, moved, lines * 64, draw(st.booleans())


@given(_case())
@settings(max_examples=120, deadline=None)
def test_equal_rebased_keys_simulate_identically(case):
    hw, traces, moved, shift, fastforward = case
    same_key = (_key(traces, hw, fastforward)
                == _key(moved, hw, fastforward))
    if shift % _grain(hw) == 0:
        assert same_key
    if same_key:
        assert_identical(
            multicore._simulate(moved, hw, None, True, fastforward),
            multicore._simulate(traces, hw, None, True, fastforward))


def test_a_sub_page_shift_across_a_page_edge_changes_the_run_and_the_key():
    """A sequential run over the last lines of a page and the first of
    the next trains two streams; moved by half a page it trains one
    and prefetches ahead, so the memo must not serve it."""
    hw = HardwareConfig()
    trace = Trace(ops=[(LOAD, (48 + j) * 64) for j in range(32)],
                  data_bytes=32 * 64)
    for shift in (256, 2048):
        moved = _shifted(trace, shift)
        assert _key([moved], hw) != _key([trace], hw)
    moved = _shifted(trace, 2048)
    assert (multicore._simulate([moved], hw, None, True, False)
            != multicore._simulate([trace], hw, None, True, False))


def test_rebased_form_moves_loads_to_the_first_grain_and_zeroes_stores():
    hw = HardwareConfig()
    base = (1 << 44) + 5 * 4096
    trace = Trace(ops=[(LOAD, base + 64), (STORE, base + 9 * 4096),
                       (SWPF, base + 4096 + 128), (COMPUTE, 7.0),
                       (FENCE, 0.0)], data_bytes=128)
    other = Trace(ops=[(LOAD, base + 3 * 4096)], data_bytes=64)
    canon = rebased([trace, other], hw)
    assert list(canon[0].ops) == [(LOAD, 64.0), (STORE, 0.0),
                                  (SWPF, 4096.0 + 128), (COMPUTE, 7.0),
                                  (FENCE, 0.0)]
    assert list(canon[1].ops) == [(LOAD, 3 * 4096.0)]
    assert canon[0].data_bytes == 128
    # The input is left as it was.
    assert trace.ops[0] == (LOAD, base + 64)


# ------------------------------------------------------ the memo itself

def _isal_run(lib, op):
    wl = Workload(k=8, m=4, data_bytes_per_thread=32 * 8 * 1024, op=op,
                  erasures=4 if op == "decode" else 0)
    return lib.run(wl, HardwareConfig())


def test_isal_decode_is_served_from_its_encode_twin():
    lib = ISAL(8, 4)
    with sim_cache(SimCache()) as memo:
        _isal_run(lib, "encode")
        assert memo.stats() == {"hits": 0, "misses": 1, "entries": 1}
        served = _isal_run(lib, "decode")
        assert memo.stats() == {"hits": 1, "misses": 1, "entries": 1}
    with sim_cache(None):
        fresh = _isal_run(lib, "decode")
    assert_identical(served.sim, fresh.sim)


def test_dialga_decode_probes_all_hit_after_encode():
    """DIALGA's hill-climb probes for decode are the encode's probes
    moved by the erased blocks' pages: every one is a memo hit."""
    def run(op):
        wl = Workload(k=8, m=4, block_bytes=1024, op=op,
                      erasures=4 if op == "decode" else 0)
        DialgaEncoder(8, 4).run(
            wl.with_(data_bytes_per_thread=8 * wl.stripe_data_bytes),
            HardwareConfig())

    with sim_cache(SimCache()) as memo:
        run("encode")
        misses, hits = memo.misses, memo.hits
        assert misses > 0
        run("decode")
    assert memo.misses == misses and memo.hits > hits


def test_memo_misses_on_any_change_to_what_is_simulated():
    hw = HardwareConfig()
    lib = ISAL(8, 4)
    wl = Workload(k=8, m=4, data_bytes_per_thread=4 * 8 * 1024)
    trace = lib.trace(wl, hw, 0)
    compute = trace.opcodes.index(COMPUTE)
    more_compute = Trace(ops=trace.ops, data_bytes=trace.data_bytes)
    more_compute.args[compute] += 1.0
    more_data = Trace(ops=trace.ops, data_bytes=trace.data_bytes + 1)
    variants = [_shifted(trace, 256), _shifted(trace, 2048),
                more_compute, more_data]
    memo = SimCache()
    memo.simulate([trace], hw)
    for n, variant in enumerate(variants, start=2):
        memo.simulate([variant], hw)
        assert memo.misses == n and memo.hits == 0
    memo.simulate([_shifted(trace, 3 * 4096, [0.0] * len(trace))], hw)
    assert memo.hits == 1


def test_sim_key_still_hashes_exact_content():
    """``sim_key`` itself is not rebased: a page shift is a new key, so
    it still counts exact-content repeats only."""
    hw = HardwareConfig()
    trace = ISAL(8, 4).trace(Workload(k=8, m=4,
                                      data_bytes_per_thread=4 * 8 * 1024),
                             hw, 0)
    moved = _shifted(trace, 4096)
    assert sim_key([moved], hw) != sim_key([trace], hw)
    assert _key([moved], hw) == _key([trace], hw)


def test_sim_key_hashes_the_concatenated_content_keys():
    """``sim_key`` feeds the op arrays' buffers to sha256 piecewise; the
    digest equals hashing the header plus every ``content_key()``."""
    hw = HardwareConfig()
    kernel = Trace(ops=[(LOAD, 0.0), (COMPUTE, 3.0), (SWPF, 4096.0),
                        (STORE, 8192.0), (FENCE, 0.0)], data_bytes=64)
    # One-line blocks, three per stripe: a 3-page stripe stride.
    tiled = tile(Kernel(kernel), 5, StripeLayout(1, 2, 64), first_stripe=2)
    isal = ISAL(8, 4).trace(Workload(k=8, m=4,
                                     data_bytes_per_thread=2 * 8 * 1024),
                            hw, 0)
    for traces, batch_ops, ff in (([tiled], 1, False),
                                  ([kernel, tiled, isal], 1, True)):
        blob = (f"sim:{fingerprint(hw)}:{batch_ops}:{int(ff)}:"
                f"{len(traces)}".encode()
                + b"".join(t.content_key() for t in traces))
        assert (sim_key(traces, hw, batch_ops, ff)
                == hashlib.sha256(blob).hexdigest())
    assert (trace_fingerprint(tiled)
            == hashlib.sha256(tiled.content_key()).hexdigest())
