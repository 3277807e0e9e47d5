"""Integration tests: cross-module pipelines, end to end.

These exercise the exact paths the benchmarks and examples use —
functional coding plus performance simulation plus adaptation —
at reduced volume so the suite stays fast.
"""

import numpy as np
import pytest

from repro import (
    AdaptiveCoordinator, Cerasure, DialgaConfig, DialgaEncoder, HardwareConfig,
    ISAL, ISALDecompose, LRCCode, RSCode, Workload, Zerasure,
)
from repro.bench.figures import fig03, fig05
from repro.codes import join_blocks, split_blocks
from repro.simulator import get_preset, perf_report
from repro.trace import validate_isal_trace

HW = HardwareConfig()


def test_full_storage_pipeline_rs():
    """bytes -> stripe -> encode -> corrupt -> decode -> bytes."""
    payload = bytes(range(256)) * 37
    k, m = 10, 4
    code = RSCode(k, m)
    data = split_blocks(payload, k)
    stripe = code.encode(data)
    rng = np.random.default_rng(0)
    for trial in range(5):
        erased = sorted(rng.choice(k + m, size=m, replace=False).tolist())
        out = code.decode(stripe.erase(erased), erased)
        repaired = stripe.blocks().copy()
        for e in erased:
            repaired[e] = out[e]
        assert join_blocks(repaired[:k], len(payload)) == payload


def test_all_libraries_full_pipeline_same_workload():
    """Every compared system encodes, decodes, and simulates one workload."""
    k, m = 8, 4
    wl = Workload(k=k, m=m, block_bytes=1024, data_bytes_per_thread=32 * 1024)
    rng = np.random.default_rng(1)
    data = rng.integers(0, 256, (k, 1024)).astype(np.uint8)
    throughputs = {}
    for lib in (ISAL(k, m), ISALDecompose(k, m, group_size=4),
                Zerasure(k, m), Cerasure(k, m),
                DialgaEncoder(k, m, config=DialgaConfig(use_probe=False))):
        parity = lib.encode(data)
        blocks = {i: data[i] for i in range(k)}
        blocks.update({k + i: parity[i] for i in range(m)})
        erased = [0, k + 1]
        out = lib.decode({i: b for i, b in blocks.items() if i not in erased},
                         erased)
        for e in erased:
            assert np.array_equal(out[e], blocks[e]), lib.name
        throughputs[lib.name] = lib.run(wl, HW).throughput_gbps
    # the paper's ordering on PM at 1KB blocks
    assert throughputs["DIALGA"] > throughputs["ISA-L"]
    assert throughputs["ISA-L"] > throughputs["Zerasure"]
    assert throughputs["ISA-L"] > throughputs["Cerasure"]


def test_dialga_traces_validate_for_every_policy_it_produces():
    """Whatever the coordinator decides must be a structurally valid trace."""
    for nthreads in (1, 16):
        for k in (6, 48):
            wl = Workload(k=k, m=4, block_bytes=1024, nthreads=nthreads,
                          data_bytes_per_thread=12 * 1024)
            enc = DialgaEncoder(k, 4, config=DialgaConfig(use_probe=False))
            enc.run(wl, HW)
            for pol in enc.policy_log:
                trace = enc.trace(wl, HW, thread=0, policy=pol)
                validate_isal_trace(trace, wl)


def test_adaptive_run_matches_nonadaptive_when_stable():
    """With stable pressure the adaptive path shouldn't lose to the
    pinned initial policy by more than chunking noise."""
    wl = Workload(k=8, m=4, block_bytes=1024, data_bytes_per_thread=64 * 1024)
    adaptive = DialgaEncoder(8, 4, config=DialgaConfig(use_probe=False, chunks=4)).run(wl, HW)
    pinned = DialgaEncoder(8, 4).run(
        wl, HW, policy=AdaptiveCoordinator(wl, HW).policy)
    ratio = adaptive.throughput_gbps / pinned.throughput_gbps
    assert 0.9 <= ratio <= 1.1, ratio


def test_figures_accept_volume_override():
    """Every figure runs at tiny volume (the CI fast path)."""
    r3 = fig03(volume=16 * 1024)
    assert len(r3.rows) == 4
    r5 = fig05(volume=32 * 1024)
    assert r5.value("k=36", "throughput_gbps") < r5.value("k=32", "throughput_gbps")


def test_preset_pipeline_with_profiler():
    wl = Workload(k=8, m=4, block_bytes=1024, data_bytes_per_thread=16 * 1024)
    for preset in ("cascade_lake_optane", "cxl_cmmh"):
        hw = get_preset(preset)
        res = ISAL(8, 4).run(wl, hw)
        report = perf_report(res.sim, hw, title=preset)
        assert preset in report
        assert res.sim.counters.media_read_bytes > 0


def test_simulation_is_deterministic():
    wl = Workload(k=8, m=4, block_bytes=1024, nthreads=4,
                  data_bytes_per_thread=16 * 1024)
    a = ISAL(8, 4).run(wl, HW)
    b = ISAL(8, 4).run(wl, HW)
    assert a.sim.makespan_ns == b.sim.makespan_ns
    assert a.sim.counters.media_read_bytes == b.sim.counters.media_read_bytes
    enc1 = DialgaEncoder(8, 4)
    enc2 = DialgaEncoder(8, 4)
    r1 = enc1.run(wl, HW)
    r2 = enc2.run(wl, HW)
    assert r1.sim.makespan_ns == r2.sim.makespan_ns
    assert enc1.policy_log == enc2.policy_log


def test_decode_after_simulated_degraded_read():
    """The Fig. 14 path: decode workload simulation + functional decode
    agree on what is being rebuilt."""
    k, m, er = 8, 4, 3
    wl = Workload(k=k, m=m, op="decode", erasures=er, block_bytes=1024,
                  data_bytes_per_thread=16 * 1024)
    lib = DialgaEncoder(k, m, config=DialgaConfig(use_probe=False))
    res = lib.run(wl, HW)
    # stores per stripe == erasures * lines
    stripes = wl.stripes_per_thread
    assert res.sim.counters.stores == stripes * 16 * er
    rng = np.random.default_rng(3)
    data = rng.integers(0, 256, (k, 1024)).astype(np.uint8)
    parity = lib.encode(data)
    blocks = {i: data[i] for i in range(k)}
    blocks.update({k + i: parity[i] for i in range(m)})
    erased = list(range(er))
    out = lib.decode({i: b for i, b in blocks.items() if i not in erased},
                     erased)
    for e in erased:
        assert np.array_equal(out[e], blocks[e])
