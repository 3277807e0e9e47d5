"""Steady-state fast-forward: detection, exactness, fallback, wiring."""

import dataclasses

import pytest

from repro.obs import Tracer, use_tracer
from repro.parallel.cache import sim_key
from repro.simulator import HardwareConfig, simulate
from repro.simulator.params import CacheConfig
from repro.trace import (COMPUTE, FENCE, LOAD, STORE, IsalVariant, Trace,
                         TracePeriod, Workload, detect_period, isal_trace)
from repro.trace.update_gen import update_trace

#: Small cache -> steady state within a few stripes, so exactness tests
#: cover warmup, convergence, jumps and tail in well under a second.
SMALL_HW = HardwareConfig(cache=CacheConfig(l2_kb=16))


def encode_trace(stripes, hw=SMALL_HW, *, op="encode", erasures=0, swpf=0,
                 k=4, m=2, block_bytes=512):
    wl = Workload(k=k, m=m, block_bytes=block_bytes,
                  data_bytes_per_thread=stripes * k * block_bytes,
                  op=op, erasures=erasures)
    return isal_trace(wl, hw.cpu,
                      variant=IsalVariant(sw_prefetch_distance=swpf))


def assert_identical(a, b):
    assert a == b
    assert a.makespan_ns == b.makespan_ns
    assert a.thread_times_ns == b.thread_times_ns
    assert a.data_bytes == b.data_bytes
    for f in dataclasses.fields(a.counters):
        assert getattr(a.counters, f.name) == getattr(b.counters, f.name), \
            f.name


# -- period detection ----------------------------------------------------


class TestDetectPeriod:
    def test_periodic_encode_trace(self):
        tr = encode_trace(40)
        info = detect_period(tr)
        assert isinstance(info, TracePeriod)
        assert info.periods == 40
        assert info.start == 0
        assert info.stride > 0
        # One period per stripe, covering the whole trace.
        assert info.period_ops * info.periods == len(tr.opcodes)
        assert tr.opcodes[info.boundary(1) - 1] == FENCE

    def test_stride_is_stripe_footprint(self):
        from repro.trace import StripeLayout
        tr = encode_trace(16, k=4, m=2, block_bytes=512)
        info = detect_period(tr)
        layout = StripeLayout(4, 2, 512)
        assert info.stride == (layout.line_addr(1, 0, 0)
                               - layout.line_addr(0, 0, 0))

    def test_aperiodic_update_trace_declines(self):
        wl = Workload(k=4, m=2, block_bytes=512)
        tr = update_trace(wl, SMALL_HW.cpu)
        info = detect_period(tr)
        # The update target rotates through blocks: no constant stride.
        assert info is None or info.periods < 4

    def test_perturbed_trace_truncates(self):
        tr = encode_trace(20)
        ops = list(zip(tr.opcodes, tr.args))
        mid = len(ops) // 2
        ops[mid] = (COMPUTE, 999.0)  # mid-trace perturbation
        tr2 = Trace(ops=ops)
        info = detect_period(tr2)
        if info is not None:
            assert info.periods < 20

    def test_too_few_periods(self):
        assert detect_period(encode_trace(2)) is None

    def test_start_pc_skips_prolog(self):
        tr = encode_trace(12)
        info = detect_period(tr, start_pc=tr_period_ops(tr))
        assert info is not None
        assert info.periods == 11


def tr_period_ops(tr):
    return detect_period(tr).period_ops


# -- exactness -----------------------------------------------------------


class TestExactness:
    @pytest.mark.parametrize("kwargs", [
        dict(stripes=200),
        dict(stripes=200, swpf=4),
        dict(stripes=200, op="decode", erasures=2),
        dict(stripes=200, k=8, m=4, block_bytes=1024),
    ])
    def test_byte_identical_to_interpreter(self, kwargs):
        tr = encode_trace(**kwargs)
        plain = simulate(tr, SMALL_HW, fastforward=False)
        fast = simulate(tr, SMALL_HW, fastforward=True)
        assert fast.fastforward["engaged"]
        assert fast.fastforward["periods_skipped"] > 0
        assert_identical(plain, fast)

    def test_dram_backend_identical(self):
        hw = HardwareConfig(cache=CacheConfig(l2_kb=16),
                            load_source="dram", store_target="dram")
        tr = encode_trace(200, hw)
        plain = simulate(tr, hw, fastforward=False)
        fast = simulate(tr, hw, fastforward=True)
        assert_identical(plain, fast)

    def test_prefetcher_disabled_identical(self):
        from repro.simulator.params import PrefetcherConfig
        hw = HardwareConfig(cache=CacheConfig(l2_kb=16),
                            prefetcher=PrefetcherConfig(enabled=False))
        tr = encode_trace(200, hw)
        plain = simulate(tr, hw, fastforward=False)
        fast = simulate(tr, hw, fastforward=True)
        assert_identical(plain, fast)

    def test_simresult_equality_ignores_ff_stats(self):
        tr = encode_trace(40)
        plain = simulate(tr, SMALL_HW, fastforward=False)
        fast = simulate(tr, SMALL_HW, fastforward=True)
        assert plain.fastforward != fast.fastforward
        assert plain == fast  # stats field is compare=False


# -- fallback ------------------------------------------------------------


class TestFallback:
    def test_update_trace_never_engages(self):
        wl = Workload(k=4, m=2, block_bytes=512)
        tr = update_trace(wl, SMALL_HW.cpu)
        plain = simulate(tr, SMALL_HW, fastforward=False)
        fast = simulate(tr, SMALL_HW, fastforward=True)
        assert not fast.fastforward["engaged"]
        assert fast.fastforward["periods_skipped"] == 0
        assert fast.fastforward["reason"]
        assert_identical(plain, fast)

    def test_short_trace_never_engages(self):
        tr = encode_trace(3)
        fast = simulate(tr, SMALL_HW, fastforward=True)
        assert not fast.fastforward["engaged"]
        assert fast.fastforward["reason"] == "no periodic structure"

    def test_default_on_single_thread_off_multicore(self):
        tr = encode_trace(30)
        single = simulate(tr, SMALL_HW)
        assert single.fastforward is not None
        multi = simulate([tr, tr], SMALL_HW)
        assert multi.fastforward is None

    def test_multicore_unaffected_by_flag(self):
        tr = encode_trace(30)
        a = simulate([tr, tr], SMALL_HW, fastforward=False)
        b = simulate([tr, tr], SMALL_HW, fastforward=True)
        assert_identical(a, b)
        assert b.fastforward is None


# -- engine chunking -----------------------------------------------------


def fresh_context(tr, hw=SMALL_HW):
    from repro.simulator import Counters, ThreadContext
    from repro.simulator.multicore import make_backends
    counters = Counters()
    load_b, store_b = make_backends(hw, counters)
    return ThreadContext(hw, counters, load_b, store_b, trace=tr)


class TestRunUntil:
    def test_chunked_run_identical_to_full(self):
        tr = encode_trace(20)
        ctx_a = fresh_context(tr)
        ctx_a.run()
        ctx_b = fresh_context(tr)
        step = 37  # deliberately misaligned with period boundaries
        while not ctx_b.done:
            ctx_b.run(until=ctx_b.pc + step)
        assert ctx_b.clock == ctx_a.clock
        assert ctx_b.counters == ctx_a.counters

    def test_until_clamps_and_is_idempotent(self):
        tr = encode_trace(5)
        ctx = fresh_context(tr)
        ctx.run(until=10 ** 9)
        assert ctx.done
        clock = ctx.run(until=3)  # already past: no-op
        assert clock == ctx.clock


# -- observability and caching wiring ------------------------------------


class TestWiring:
    def test_tracer_event_per_jump(self):
        tr = encode_trace(200)
        tracer = Tracer("test")
        with use_tracer(tracer):
            res = simulate(tr, SMALL_HW, fastforward=True)
        events = [e for e in tracer.events if e.name == "sim.fastforward"]
        assert len(events) == res.fastforward["jumps"] > 0
        total = sum(e.attrs["periods_skipped"] for e in events)
        assert total == res.fastforward["periods_skipped"]
        for e in events:
            assert e.attrs["stride"] == res.fastforward["stride"]
            assert e.attrs["converged_at_op"] is not None

    def test_sim_key_includes_fastforward_flag(self):
        tr = encode_trace(10)
        hw = SMALL_HW
        assert (sim_key([tr], hw, fastforward=False)
                != sim_key([tr], hw, fastforward=True))

    def test_bench_scenario_registered(self):
        from repro.bench.cli import _experiments
        assert "fastforward" in _experiments()
