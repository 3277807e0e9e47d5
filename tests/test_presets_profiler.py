"""Tests for hardware presets and the perf-style profiler."""

import pytest

from repro import Workload
from repro.simulator import PRESETS, get_preset, perf_report, simulate
from repro.simulator.params import HardwareConfig
from repro.simulator.presets import cxl_cmmh, dram_only, icelake_optane
from repro.trace import IsalVariant, isal_trace


def test_all_presets_construct():
    for name in PRESETS:
        hw = get_preset(name)
        assert isinstance(hw, HardwareConfig)


def test_unknown_preset():
    with pytest.raises(KeyError, match="available"):
        get_preset("skylake")


def test_default_preset_is_paper_testbed():
    hw = get_preset("cascade_lake_optane")
    assert hw.prefetcher.max_streams == 32
    assert hw.pm.read_buffer_kb == 96
    assert hw.cpu.freq_ghz == 3.3


def test_icelake_streamer_capacity():
    assert icelake_optane().prefetcher.max_streams == 64


def test_cmmh_granularity_larger():
    hw = cxl_cmmh()
    assert hw.pm.xpline_bytes > 256
    assert hw.pm.media_latency_ns > HardwareConfig().pm.media_latency_ns


def test_dram_only_routes_loads_and_stores():
    hw = dram_only()
    assert hw.load_source == "dram" and hw.store_target == "dram"


def _small_result(hw=None):
    hw = hw or HardwareConfig()
    wl = Workload(k=4, m=2, block_bytes=1024, data_bytes_per_thread=16 * 1024)
    trace = isal_trace(wl, hw.cpu, IsalVariant(sw_prefetch_distance=4))
    return simulate([trace], hw), hw


def test_perf_report_contains_key_sections():
    res, hw = _small_result()
    report = perf_report(res, hw, title="unit test")
    for needle in ("Performance counter stats for 'unit test'",
                   "cycles", "loads", "hw prefetches issued",
                   "sw prefetches issued", "PM media bytes read",
                   "GB/s over 1 thread(s)"):
        assert needle in report, needle


def test_perf_report_numbers_consistent():
    res, hw = _small_result()
    report = perf_report(res, hw)
    assert f"{res.counters.loads:,.0f}" in report.replace("  ", " ") or \
        f"{res.counters.loads:,}" in report


def test_perf_report_zero_division_safe():
    from repro.simulator.multicore import SimResult
    from repro.simulator import Counters
    empty = SimResult(makespan_ns=1.0, thread_times_ns=[1.0],
                      counters=Counters(), data_bytes=0)
    report = perf_report(empty)
    assert "loads" in report


def test_presets_run_end_to_end():
    for name in PRESETS:
        res, _ = _small_result(get_preset(name))
        assert res.makespan_ns > 0


def test_perf_report_multithread_thread_count():
    from repro.trace import Workload, isal_trace, IsalVariant
    hw = HardwareConfig()
    wl = Workload(k=4, m=2, block_bytes=1024, nthreads=3,
                  data_bytes_per_thread=8 * 1024)
    traces = [isal_trace(wl, hw.cpu, IsalVariant(), thread=t)
              for t in range(3)]
    res = simulate(traces, hw)
    assert "3 thread(s)" in perf_report(res, hw)


# -- compare-section threshold boundaries ----------------------------------

def _synthetic(avg_lat_ns: float, useless: int = 0, loads: int = 1000):
    from repro.simulator import Counters, SimResult
    c = Counters()
    c.loads = loads
    c.load_stall_ns = avg_lat_ns * loads
    c.hwpf_useless = useless
    c.hwpf_issued = max(useless, 1)
    return SimResult(makespan_ns=1e6, thread_times_ns=[1e6],
                     counters=c, data_bytes=1 << 20)


def test_compare_contention_flag_is_strictly_above_110_percent():
    base = _synthetic(200.0)
    # 1.10 * 200 has float fuzz just above 220: exactly-at stays quiet.
    at = perf_report(_synthetic(220.0), compare=base)
    assert "!! contention" not in at
    above = perf_report(_synthetic(221.0), compare=base)
    assert "!! contention" in above


def test_compare_inefficient_flag_is_strictly_above_150_percent():
    base = _synthetic(100.0, useless=10)  # 0.01 useless per load
    at = perf_report(_synthetic(100.0, useless=15), compare=base)
    assert "!! inefficient prefetcher" not in at
    above = perf_report(_synthetic(100.0, useless=16), compare=base)
    assert "!! inefficient prefetcher" in above


def test_compare_flags_match_regression_gate_language():
    """perf_report's 110%/150% flags speak the coordinator's own §4.1.2
    thresholds."""
    report = perf_report(_synthetic(400.0), compare=_synthetic(200.0))
    assert "110%" in report
    assert "coordinator would flag this" in report
