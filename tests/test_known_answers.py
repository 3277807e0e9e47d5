"""Memoized simulated costs are exact: a warm memo gives the same
answers, counters and store state as re-simulating everything."""

from repro import DialgaConfig, DialgaEncoder
from repro.obs import Tracer, use_tracer
from repro.pmstore import FaultInjector
from repro.service import (
    ErasureCodingService,
    Request,
    ServiceConfig,
    get_wave,
    put_wave,
)


class _ColdService(ErasureCodingService):
    """Re-simulates every coding job: the memo is emptied before each."""

    def _job_cost(self, wl):
        self._job_memo.clear()
        return super()._job_cost(wl)


def _faulty_traffic(cls):
    """RS(16,12) with 4-thread adaptive jobs (each raw encode switches
    policy once), transient put faults, then degraded gets."""
    svc = cls(12, 4, library=DialgaEncoder(12, 4, config=DialgaConfig(
        use_probe=False, chunks=6)),
        config=ServiceConfig(threads_per_job=4, max_batch=4,
                             max_queue_depth=12))
    inj = FaultInjector(svc.store, seed=5)
    svc.store.add_fault_hook(inj.transient_hook(rate=0.2, ops=("put",)))
    for i in range(3):
        svc.submit(Request.encode(stripes=40, arrival_ns=i * 1e6))
    svc.submit_many(put_wave(8, 2, payload_bytes=4096, seed=1))
    results = svc.drain()
    svc.store.mark_device_lost(2)
    svc.submit_many(get_wave(8, 2, start_ns=svc.clock_ns + 1e4, seed=2))
    results += svc.drain()
    return svc, results


def test_service_job_memo_is_exact_under_faults_and_device_loss():
    warm, warm_results = _faulty_traffic(ErasureCodingService)
    cold, cold_results = _faulty_traffic(_ColdService)
    # The scenario exercises what the memo must reproduce: replayed
    # policy switches, retries and degraded reads.
    assert warm.metrics.count("policy_switches") == 3
    assert warm.metrics.count("retries") > 0
    assert warm.metrics.count("degraded_reads") > 0
    assert len(warm._job_memo) < warm.metrics.count("requests")
    assert warm_results == cold_results
    assert warm.metrics.snapshot() == cold.metrics.snapshot()
    assert warm.store.state_digest() == cold.store.state_digest()
    assert warm.clock_ns == cold.clock_ns


def test_traced_service_simulates_every_job():
    """Traced jobs bypass the memo, so each one-stripe job emits its
    own ``sim.chunk`` span on the service timeline."""
    tracer = Tracer()
    with use_tracer(tracer):
        svc = ErasureCodingService(8, 4, config=ServiceConfig(max_batch=1))
        svc.submit_many(Request.put(f"k{i}", b"x" * 4096,
                                    arrival_ns=i * 1e6) for i in range(5))
        results = svc.drain()
    assert all(r.ok for r in results)
    assert len(tracer.find_spans("sim.chunk")) == len(results) == 5
    assert svc._job_memo == {}
