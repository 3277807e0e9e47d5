"""Property-based tests: fast-forward exactness and digest algebra."""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.simulator import Counters, CoreCache, HardwareConfig, simulate
from repro.simulator.cache import (
    ARRIVAL, DEMAND, HWPF, PROMO, SOURCE, SWPF as SWPF_SRC, USED)
from repro.simulator.memory import PMBackend
from repro.simulator.params import CacheConfig, PMConfig
from repro.simulator.streamprefetcher import StreamPrefetcher
from repro.simulator.params import PrefetcherConfig
from repro.trace.ops import COMPUTE, FENCE, LOAD, STORE, SWPF, Trace

HW = HardwareConfig(cache=CacheConfig(l2_kb=16))

#: One per-stripe kernel op: (opcode, base arg). Addresses are line
#: aligned inside a small window; COMPUTE carries a cycle count.
_kernel_op = st.one_of(
    st.tuples(st.just(LOAD), st.integers(0, 31).map(lambda n: n * 64)),
    st.tuples(st.just(STORE), st.integers(0, 31).map(lambda n: n * 64)),
    st.tuples(st.just(SWPF), st.integers(0, 31).map(lambda n: n * 64)),
    st.tuples(st.just(COMPUTE), st.integers(1, 50).map(float)),
)

_ADDR_OPS = (LOAD, STORE, SWPF)


def periodic_trace(kernel, stride, periods):
    ops = []
    for p in range(periods):
        shift = p * stride
        for op, arg in kernel:
            ops.append((op, arg + shift if op in _ADDR_OPS else arg))
        ops.append((FENCE, 0))
    return Trace(ops=ops)


def assert_identical(a, b):
    assert a == b
    assert a.makespan_ns == b.makespan_ns
    for f in dataclasses.fields(a.counters):
        assert getattr(a.counters, f.name) == getattr(b.counters, f.name), \
            f.name


@given(kernel=st.lists(_kernel_op, min_size=3, max_size=10),
       stride_pages=st.integers(1, 8),
       periods=st.integers(30, 150))
@settings(max_examples=25, deadline=None)
def test_fastforward_byte_identical_on_periodic_traces(
        kernel, stride_pages, periods):
    """Randomized periodic traces: fast-forward output (makespan plus
    every counter) equals plain interpretation bit for bit, whether or
    not steady state was reached."""
    tr = periodic_trace(kernel, stride_pages * 4096, periods)
    plain = simulate(tr, HW, fastforward=False)
    fast = simulate(tr, HW, fastforward=True)
    assert_identical(plain, fast)


@given(kernel=st.lists(_kernel_op, min_size=3, max_size=8),
       stride_pages=st.integers(1, 4),
       periods=st.integers(20, 60),
       data=st.data())
@settings(max_examples=25, deadline=None)
def test_perturbed_traces_never_engage(kernel, stride_pages, periods, data):
    """A fault-style perturbation every few stripes leaves no periodic
    run long enough to validate: fast-forward must decline and fall
    back to plain interpretation, still bit-identical."""
    tr = periodic_trace(kernel, stride_pages * 4096, periods)
    ops = list(zip(tr.opcodes, tr.args))
    row = len(kernel) + 1
    # Knock one op per 3-period window out of pattern (MIN_PERIODS=4
    # clean consecutive periods can then never occur).
    for p in range(0, periods, 3):
        i = p * row + data.draw(st.integers(0, row - 2), label=f"slot{p}")
        op, arg = ops[i]
        ops[i] = (COMPUTE, 1e6) if op != COMPUTE else (COMPUTE, arg + 0.5)
    tr2 = Trace(ops=ops)
    plain = simulate(tr2, HW, fastforward=False)
    fast = simulate(tr2, HW, fastforward=True)
    assert not fast.fastforward["engaged"]
    assert fast.fastforward["periods_skipped"] == 0
    assert_identical(plain, fast)


@given(addrs=st.lists(st.integers(0, 500), min_size=1, max_size=60,
                      unique=True),
       data=st.data(),
       a=st.integers(0, 50), b=st.integers(0, 50),
       ta=st.integers(0, 10 ** 6), tb=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_cache_relabel_is_a_group_action(addrs, data, a, b, ta, tb):
    """relabel(a, ta) then relabel(b, tb) == relabel(a+b, ta+tb), and
    the shift-invariant digest is invariant under both."""
    now = 1000.0
    grain = 4096
    specs = [
        (addr * 64,
         float(data.draw(st.integers(0, 5000), label=f"arr{addr}")),
         data.draw(st.sampled_from([DEMAND, HWPF, SWPF_SRC]),
                   label=f"src{addr}"))
        for addr in addrs
    ]

    # Integer-valued floats below 2**53: every addition is exact, so
    # the composition law holds with equality, not approximately.
    def build():
        cache = CoreCache(128, Counters())
        for line, arrival, src in specs:
            cache.insert(line, arrival, src,
                         used=bool(line % 128), promo_ns=float(line % 7))
        return cache

    def snapshot(c):
        return [(addr, e[ARRIVAL], e[SOURCE], e[USED], e[PROMO])
                for addr, e in c._lines.items()]

    c1 = build()
    dig0, live0 = c1.state_digest(now, 0)
    c1.relabel(a * grain, float(ta), now)
    c1.relabel(b * grain, float(tb), now)
    c2 = build()
    c2.relabel((a + b) * grain, float(ta + tb), now)
    assert snapshot(c1) == snapshot(c2)
    # Digest invariance: rebasing by the same shift recovers the
    # original digest entries (live offsets measured from the shifted
    # clock).
    dig1, live1 = c2.state_digest(now + ta + tb, (a + b) * grain)
    assert dig1 == dig0
    assert live1 == live0


@given(pages=st.lists(st.integers(0, 300), min_size=1, max_size=40,
                      unique=True),
       a=st.integers(0, 20), b=st.integers(0, 20))
@settings(max_examples=40, deadline=None)
def test_prefetcher_and_readbuffer_relabel_group_action(pages, a, b):
    cfg = PrefetcherConfig()
    grain = cfg.page_bytes

    def build_pf():
        pf = StreamPrefetcher(cfg, Counters())
        for i, page in enumerate(pages[:cfg.max_streams]):
            for line in range(min(3, 1 + i % 3)):
                pf.on_access(page * grain + line * 64)
        return pf

    p1 = build_pf()
    d0 = p1.state_digest(0)
    p1.relabel(a * grain)
    p1.relabel(b * grain)
    p2 = build_pf()
    p2.relabel((a + b) * grain)
    assert list(p1._table.items()) == list(p2._table.items())
    assert p2.state_digest((a + b) * grain) == d0

    def build_rb():
        pm = PMBackend(PMConfig(read_buffer_kb=8), Counters())  # 32 XPLines
        for page in pages:
            pm.fill_line(page * 256, 0.0, True)
        return pm.read_buffer

    r1 = build_rb()
    rd0 = r1.state_digest(0)
    r1.relabel(a * 256)
    r1.relabel(b * 256)
    r2 = build_rb()
    r2.relabel((a + b) * 256)
    assert list(r1._entries.items()) == list(r2._entries.items())
    assert r2.state_digest((a + b) * 256) == rd0
