"""Decision ledger and counterfactual replay."""

import json

import pytest

from repro import HardwareConfig, Workload
from repro.core import AdaptiveCoordinator
from repro.core.dialga import DialgaConfig, DialgaEncoder
from repro.obs import (
    DecisionLedger,
    Tracer,
    ledger_from_coordinator,
    replay_decisions,
    use_tracer,
)
from repro.parallel import fingerprint
from repro.simulator import Counters

HW = HardwareConfig()


def _wl(**kw):
    base = dict(k=8, m=4, block_bytes=1024, data_bytes_per_thread=64 * 1024)
    base.update(kw)
    return Workload(**base)


def _hot_coordinator():
    """Coordinator driven through a synthetic contention switch."""
    coord = AdaptiveCoordinator(_wl(nthreads=10), HW)
    cal = Counters()
    cal.loads, cal.load_stall_ns, cal.hwpf_useless = 1000, 10_000.0, 10
    coord.set_baseline(cal)
    hot = Counters()
    hot.loads, hot.load_stall_ns, hot.hwpf_useless = 1000, 30_000.0, 100
    coord.observe(hot)
    return coord


# -- evidence capture ------------------------------------------------------


class TestDecisionEvidence:
    def test_initial_decision_is_recorded_with_evidence(self):
        coord = AdaptiveCoordinator(_wl(), HW)
        assert len(coord.decision_log) == 1
        ev = coord.decision_log[0]
        assert ev.kind == "initial"
        assert not ev.switched and ev.old is None
        assert ev.chosen is coord.policy
        assert {c.name for c in ev.checks} >= {"thread_pressure",
                                               "wide_stripe"}
        assert coord.policy in ev.candidates

    def test_observe_records_threshold_evaluations(self):
        coord = _hot_coordinator()
        ev = coord.decision_log[-1]
        assert ev.kind == "observe"
        assert ev.switched and ev.old is not None
        assert ev.fired("contention") and ev.fired("inefficient")
        by_name = {c.name: c for c in ev.checks}
        assert by_name["contention"].value > by_name["contention"].limit
        assert len(ev.candidates) >= 2
        assert not coord.policy.hw_prefetch

    def test_decision_log_grows_per_evidenced_sample(self):
        coord = AdaptiveCoordinator(_wl(), HW)
        seen = coord.decision_log
        assert len(seen) == 1 and seen[0].kind == "initial"
        quiet = Counters()
        quiet.loads, quiet.load_stall_ns = 1000, 10_000.0
        coord.observe(quiet)
        assert len(seen) == 2
        coord.observe(Counters())  # zero-load samples carry no evidence
        assert len(seen) == 2
        assert coord.switches == 0

    def test_probe_search_records_climb_trajectory(self):
        wl = _wl(nthreads=2)
        coord = AdaptiveCoordinator(wl, HW,
                                    probe=lambda d: abs(d - 11) + 1.0)
        ev = coord.decision_log[0]
        assert len(ev.climb) >= 2  # the start plus accepted moves
        # The trajectory's last accepted move is the chosen distance.
        assert ev.climb[-1][1] == coord.policy.sw_distance == 11


class TestDecisionLedger:
    def test_jsonl_roundtrip_is_plain_json(self):
        ledger = ledger_from_coordinator(_hot_coordinator())
        lines = ledger.to_jsonl().strip().splitlines()
        assert len(lines) == len(ledger.records)
        parsed = [json.loads(line) for line in lines]
        assert parsed[-1]["switched"] is True
        assert parsed[-1]["old"] != parsed[-1]["chosen"]
        assert any(c["fired"] for c in parsed[-1]["checks"])

    def test_write_jsonl(self, tmp_path):
        ledger = ledger_from_coordinator(_hot_coordinator())
        path = ledger.write_jsonl(tmp_path / "sub" / "decisions.jsonl")
        assert path.exists()
        assert len(path.read_text().strip().splitlines()) == len(ledger.records)

    def test_emit_events_lays_decisions_on_the_timeline(self):
        ledger = ledger_from_coordinator(_hot_coordinator())
        tracer = Tracer("test")
        emitted = ledger.emit_events(tracer)
        evaluated = [e for e in tracer.events if e.name == "decision.evaluated"]
        switches = [e for e in tracer.events if e.name == "decision.switch"]
        assert len(evaluated) == len(ledger.records)
        assert len(switches) == len(ledger.switches) == 1
        assert emitted == len(evaluated) + len(switches)
        assert switches[0].attrs["old"] != switches[0].attrs["new"]

    def test_emit_events_noop_without_tracer(self):
        ledger = ledger_from_coordinator(_hot_coordinator())
        assert ledger.emit_events() == 0  # ambient NULL tracer

    def test_render_mentions_switches(self):
        text = ledger_from_coordinator(_hot_coordinator()).render()
        assert "SWITCH" in text and "contention" in text


# -- counterfactual replay -------------------------------------------------


class TestReplay:
    @pytest.fixture(scope="class")
    def episode(self):
        wl = _wl(nthreads=10,
                 data_bytes_per_thread=48 * 8 * 1024)
        enc = DialgaEncoder(8, 4, config=DialgaConfig(use_probe=False,
                                                      chunks=4))
        enc.run(wl, HW)
        return ledger_from_coordinator(enc.last_coordinator)

    def test_regret_report_shape(self, episode):
        report = replay_decisions(episode)
        assert len(report.decisions) == len(episode.records)
        assert 0.0 < report.oracle_score <= 1.0
        assert all(d.regret_ns_per_byte >= 0.0 for d in report.decisions)
        assert all(d.best in d.candidate_ns_per_byte
                   and d.chosen in d.candidate_ns_per_byte
                   for d in report.decisions)

    def test_window_stripes_come_from_the_chunk_size(self, episode):
        assert episode.window_stripes == 48 // 4
        assert replay_decisions(episode).window_stripes == 12
        assert replay_decisions(episode,
                                window_stripes=3).window_stripes == 3

    def test_cache_engages_across_windows(self, episode):
        report = replay_decisions(episode)
        assert report.cache_stats["hits"] > 0
        # Candidate policies recur across decisions: far fewer unique
        # simulations than candidate evaluations.
        assert report.cache_stats["misses"] < sum(
            len(d.candidate_ns_per_byte) for d in report.decisions)

    def test_replay_is_deterministic(self, episode):
        a = replay_decisions(episode).to_dict()
        b = replay_decisions(episode).to_dict()
        assert a == b

    def test_render_has_score_line(self, episode):
        text = replay_decisions(episode).render()
        assert "oracle-normalized score" in text

    def test_replay_without_workload_raises(self):
        with pytest.raises(ValueError):
            replay_decisions(DecisionLedger())

    def test_replay_ignores_ambient_tracer(self, episode):
        tracer = Tracer("test")
        with use_tracer(tracer):
            report = replay_decisions(episode)
        assert report.cache_stats["hits"] > 0
        assert not tracer.spans  # windows never land on the timeline


# -- service integration ---------------------------------------------------


def test_service_emits_decision_events_on_the_request_timeline():
    from repro.service import ErasureCodingService, Request, ServiceConfig

    svc = ErasureCodingService(
        4, 2, block_bytes=1024,
        library=DialgaEncoder(4, 2, config=DialgaConfig(use_probe=False,
                                                        chunks=2)),
        config=ServiceConfig(threads_per_job=2))
    tracer = Tracer("test")
    with use_tracer(tracer):
        svc.submit(Request.encode(stripes=8, arrival_ns=0.0))
        svc.drain()
    evaluated = [e for e in tracer.events if e.name == "decision.evaluated"]
    assert evaluated, "coding jobs must leave decision.* events"
    batch_spans = [s for s in tracer.spans if s.name == "service.batch"]
    assert batch_spans
    # Decisions are rebased onto the service clock: inside the batch.
    assert all(batch_spans[0].start_ns <= e.ts_ns <= batch_spans[-1].end_ns
               for e in evaluated)


# -- the bench scenario ----------------------------------------------------


def test_audit_scenario_is_registered():
    from repro.bench.audit_scenario import ALL_AUDIT_SCENARIOS, audit_scenario
    from repro.bench.cli import _experiments
    assert ALL_AUDIT_SCENARIOS["audit"] is audit_scenario
    assert _experiments()["audit"] is audit_scenario


@pytest.mark.slow
def test_audit_scenario_all_checks_pass():
    from repro.bench.audit_scenario import audit_scenario
    fig = audit_scenario(seed=0)
    assert fig.all_passed, fig.render()
    assert fig.value("pressure (10 threads)", "switches") >= 1
    # The whole deterministic output is pinned (see test_scenario_pins.py).
    assert fingerprint(fig.deterministic()) == (
        "999aade904c99f9093703b1e5ed2e371b88796e66def088f88ff420e6f8cacbd")


@pytest.mark.slow
def test_audit_scenario_rerun_byte_identical(tmp_path):
    from tests.test_check_rerun import bench_pair
    assert bench_pair(tmp_path, "audit", "--seed", "0") == []
