"""End-to-end tracing: a traced adaptive run plus service traffic must
put coordinator decisions, simulator phases and request lifecycles on
one timeline — the property the bench ``--trace`` flag relies on."""

import pytest

from repro.core.dialga import DialgaConfig, DialgaEncoder
from repro.libs import ISAL
from repro.obs import (
    Tracer,
    aggregate_by_name,
    assert_well_formed,
    render_span_tree,
    service_stage_breakdown,
    span_forest,
    use_tracer,
)
from repro.service import ErasureCodingService, ServiceConfig, put_wave
from repro.service.metrics import LatencyHistogram
from repro.service.request import Request
from repro.simulator import HardwareConfig, simulate
from repro.simulator.profiler import perf_report
from repro.trace import Workload


@pytest.fixture
def traced_run():
    """One adaptive encode (policy switch) + a small service burst."""
    tracer = Tracer("it")
    with use_tracer(tracer):
        lib = DialgaEncoder(8, 4, config=DialgaConfig(use_probe=False,
                                                      chunks=6))
        lib.run(Workload(k=8, m=4, block_bytes=1024, nthreads=10,
                         data_bytes_per_thread=160 * 8 * 1024 // 10))
        svc = ErasureCodingService(
            8, 4, block_bytes=1024,
            config=ServiceConfig(max_queue_depth=12, max_batch=4))
        svc.submit(Request.encode(stripes=16, arrival_ns=0.0))
        svc.submit_many(put_wave(3, 2, payload_bytes=1024,
                                 mean_gap_ns=2_000.0, seed=9))
        results = svc.drain()
    assert all(r.ok for r in results)
    return tracer


class TestTimelineUnification:
    def test_trace_is_well_formed(self, traced_run):
        assert_well_formed(traced_run)
        assert traced_run.open_spans == []

    def test_all_three_layers_recorded(self, traced_run):
        assert traced_run.find_events("coordinator.policy_switch")
        assert traced_run.find_spans("sim.chunk")
        assert traced_run.find_spans("service.request")

    def test_policy_switch_lies_inside_a_chunk_span(self, traced_run):
        switch = traced_run.find_events("coordinator.policy_switch")[0]
        assert any(s.start_ns <= switch.ts_ns <= s.end_ns
                   for s in traced_run.find_spans("sim.chunk"))

    def test_service_coding_spans_rebased_onto_service_clock(
            self, traced_run):
        # Every dialga.run nested under a service.batch must start at
        # the batch's dispatch instant, not at t=0.
        by_id = {s.span_id: s for s in traced_run.spans}
        nested = [s for s in traced_run.find_spans("dialga.run")
                  if s.parent_id is not None
                  and by_id[s.parent_id].name == "service.batch"]
        assert nested
        for s in nested:
            parent = by_id[s.parent_id]
            assert s.start_ns >= parent.start_ns > 0

    def test_standalone_runs_sequence_not_overlap(self):
        tracer = Tracer()
        lib = ISAL(4, 2)
        wl = Workload(k=4, m=2, block_bytes=1024, nthreads=2,
                      data_bytes_per_thread=8 * 1024)
        with use_tracer(tracer):
            lib.run(wl)
            lib.run(wl)
        first, second = tracer.find_spans("sim.run")
        assert second.start_ns >= first.end_ns

    def test_single_thread_simulate_traces_when_enabled(self):
        tracer = Tracer()
        hw = HardwareConfig()
        trace = ISAL(4, 2).trace(
            Workload(k=4, m=2, block_bytes=1024, nthreads=1,
                     data_bytes_per_thread=8 * 1024), hw, 0)
        with use_tracer(tracer):
            simulate(trace, hw)
        (span,) = tracer.find_spans("sim.run")
        assert span.attrs["threads"] == 1
        assert span.attrs["d_loads"] > 0   # counter delta attached

    def test_disabled_tracing_records_nothing_and_matches_output(self):
        lib = ISAL(4, 2)
        wl = Workload(k=4, m=2, block_bytes=1024, nthreads=2,
                      data_bytes_per_thread=8 * 1024)
        baseline = lib.run(wl)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = lib.run(wl)
        assert traced.sim.makespan_ns == baseline.sim.makespan_ns
        assert traced.sim.counters.loads == baseline.sim.counters.loads


class TestSummaries:
    def test_stage_breakdown_covers_completed_requests(self, traced_run):
        stages = service_stage_breakdown(traced_run)
        n = len(stages["total"])
        assert n > 0
        assert len(stages["queue_wait"]) == len(stages["execute"]) == n
        for wait, run, total in zip(stages["queue_wait"],
                                    stages["execute"], stages["total"]):
            assert wait >= 0 and run >= 0
            assert total == pytest.approx(wait + run)

    def test_span_tree_renders_nested_structure(self, traced_run):
        text = render_span_tree(traced_run, max_children=3)
        assert "dialga.run" in text
        assert "  sim.chunk" in text       # indented child
        assert "(+" in text                # elision marker

    def test_aggregate_by_name(self, traced_run):
        agg = aggregate_by_name(traced_run)
        assert agg["sim.chunk"]["count"] >= 6
        assert agg["sim.chunk"]["mean_ns"] > 0

    def test_span_forest_parents_resolve(self, traced_run):
        roots = span_forest(traced_run)
        seen = set()

        def walk(node):
            seen.add(node.span.span_id)
            for child in node.children:
                walk(child)

        for root in roots:
            walk(root)
        assert seen == {s.span_id for s in traced_run.spans}


class TestHillclimbEvents:
    def test_probe_search_emits_step_and_done_events(self):
        tracer = Tracer()
        with use_tracer(tracer):
            lib = DialgaEncoder(8, 4, config=DialgaConfig(use_probe=True,
                                                          chunks=2))
            lib.run(Workload(k=8, m=4, block_bytes=4096, nthreads=4,
                             data_bytes_per_thread=16 * 8 * 4096))
        steps = tracer.find_events("coordinator.hillclimb_step")
        done = tracer.find_events("coordinator.hillclimb_done")
        assert steps and done
        assert steps[0].attrs["step"] == 0
        assert done[0].attrs["evaluations"] >= 1


class TestLatencyHistogram:
    def test_percentile_properties_on_sorted_copy(self):
        hist = LatencyHistogram()
        samples = [10.0, 1.0, 7.0, 3.0, 9.0, 2.0, 8.0, 4.0, 6.0, 5.0]
        for v in samples:
            hist.record(v)
        # Nearest-rank over the sorted copy of 1..10.
        assert hist.p50 == 5.0
        assert hist.p95 == 10.0
        assert hist.p999 == 10.0
        # Recording order is preserved; sorting happens on a copy.
        assert hist._values == samples
        assert hist.sorted_values() == sorted(samples)

    def test_sorted_cache_invalidates_on_record(self):
        hist = LatencyHistogram()
        hist.record(10.0)
        assert hist.p50 == 10.0
        hist.record(2.0)
        assert hist.sorted_values() == [2.0, 10.0]

    def test_summary_includes_new_quantiles(self):
        hist = LatencyHistogram()
        hist.record(1.0)
        s = hist.summary()
        assert {"p50_ns", "p90_ns", "p95_ns", "p99_ns",
                "p999_ns"} <= set(s)


class TestPerfReportCompare:
    def _run(self, nthreads):
        wl = Workload(k=8, m=4, block_bytes=1024, nthreads=nthreads,
                      data_bytes_per_thread=32 * 8 * 1024)
        return ISAL(8, 4).run(wl).sim

    def test_compare_section_rendered(self):
        base = self._run(2)
        cur = self._run(14)
        text = perf_report(cur, compare=base)
        assert "vs baseline:" in text
        assert "makespan_ns" in text
        assert "(baseline" in text

    def test_contention_flag_uses_110_percent_threshold(self):
        base = self._run(2)
        cur = self._run(14)
        text = perf_report(cur, compare=base)
        c, b = cur.counters, base.counters
        flagged = "!! contention" in text
        assert flagged == (
            c.avg_load_latency_ns > 1.10 * b.avg_load_latency_ns)

    def test_self_compare_raises_no_flags(self):
        res = self._run(4)
        text = perf_report(res, compare=res)
        assert "!!" not in text
        assert "+0.0%" in text
