"""The concurrent EC service: queue coalescing, Eq. (1) admission,
retry-under-faults, degraded reads and the metrics registry."""

import math

import numpy as np
import pytest

from repro.libs import GeometryMismatch
from repro.pmstore import FaultInjector, TransientFault
from repro.service import (
    AdmissionController,
    BatchKey,
    ErasureCodingService,
    LatencyHistogram,
    MetricsRegistry,
    Request,
    RequestKind,
    RequestQueue,
    RetryPolicy,
    ServiceConfig,
    eq1_thread_cap,
    get_wave,
    put_wave,
)
from repro.service.retry import MAX_DELAY_NS
from repro.simulator.params import PMConfig


# --------------------------------------------------------------- queue

def _key(kind=RequestKind.PUT):
    return BatchKey(kind, 8, 4, 1024)


def test_queue_rejects_when_full():
    q = RequestQueue(max_depth=2)
    assert q.push(_key(), Request.put("a", b"x"))
    assert q.push(_key(), Request.put("b", b"x"))
    assert q.full
    assert not q.push(_key(), Request.put("c", b"x"))
    assert q.depth == 2 and q.peak_depth == 2


def test_pop_batch_coalesces_same_key_and_preserves_fifo():
    q = RequestQueue(max_depth=10)
    p1, p2, p3 = (Request.put(k, b"x") for k in "abc")
    g1 = Request.get("a")
    for key, req in ((_key(), p1), (_key(RequestKind.GET), g1),
                     (_key(), p2), (_key(), p3)):
        q.push(key, req)
    batch = q.pop_batch(max_batch=8)
    assert batch.key.kind is RequestKind.PUT
    assert batch.requests == [p1, p2, p3] and batch.coalesced
    # The non-matching GET kept its place at the head.
    nxt = q.pop_batch()
    assert nxt.requests == [g1] and not nxt.coalesced
    assert q.pop_batch() is None


def test_pop_batch_respects_max_batch():
    q = RequestQueue()
    reqs = [Request.put(str(i), b"x") for i in range(5)]
    for r in reqs:
        q.push(_key(), r)
    batch = q.pop_batch(max_batch=3)
    assert batch.requests == reqs[:3]
    assert q.pop_batch(max_batch=3).requests == reqs[3:]


# ----------------------------------------------------------- admission

def test_eq1_thread_cap_matches_the_papers_equation():
    pm = PMConfig()  # 96 KB buffer, 256 B XPLine
    k, m, d = 8, 4, 16
    per_thread = k * pm.xpline_bytes * math.ceil(d / (k + m))
    assert eq1_thread_cap(k, m, d, pm) == (pm.read_buffer_kb * 1024) // per_thread == 24


def test_eq1_thread_cap_never_starves():
    assert eq1_thread_cap(48, 4, 96 * 48, PMConfig()) == 1


def test_eq1_thread_cap_validates():
    with pytest.raises(ValueError, match="bad geometry"):
        eq1_thread_cap(0, 4, 16, PMConfig())


def test_admission_controller_accounting():
    ac = AdmissionController(8, 4, PMConfig())  # d_max=2k=16 -> cap 24
    assert ac.capacity_threads == 24
    assert ac.try_admit(20) and ac.try_admit(4)
    assert ac.at_capacity and not ac.try_admit(1)
    assert ac.would_exceed(1) and ac.active_threads == ac.capacity_threads
    ac.release(4)
    assert not ac.at_capacity and ac.try_admit(4)
    assert ac.peak_threads == 24
    with pytest.raises(ValueError, match="releasing"):
        ac.release(25)


# --------------------------------------------------------------- retry

def test_retry_policy_backoff_schedule():
    p = RetryPolicy(max_attempts=5, base_delay_ns=3e6, factor=2.0)
    assert [p.delay_ns(i) for i in (1, 2, 3, 4)] == [3e6, 6e6, MAX_DELAY_NS,
                                                     MAX_DELAY_NS]
    assert sum(p.delay_ns(i) for i in (1, 2, 3)) == 1.9e7


def test_retry_policy_validates():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(factor=0.5)


# ------------------------------------------------------------- metrics

def test_latency_histogram_percentiles_are_nearest_rank():
    h = LatencyHistogram()
    for v in range(1, 101):
        h.record(float(v))
    assert h.percentile(50) == 50.0
    assert h.percentile(99) == 99.0
    assert h.percentile(100) == h.max_ns == 100.0
    assert h.mean_ns == 50.5
    with pytest.raises(ValueError):
        h.percentile(101)


def test_metrics_registry_snapshot_and_render():
    m = MetricsRegistry()
    m.inc("completed")
    m.inc("completed", 2)
    m.observe_latency("put", 1000.0)
    m.sample_queue_depth(3)
    m.sample_queue_depth(5)
    snap = m.snapshot()
    assert snap["counters"]["completed"] == 3
    assert snap["latency"]["put"]["count"] == 1
    assert snap["queue"]["max_depth"] == 5 and m.mean_queue_depth == 4.0
    assert m.count("nonexistent") == 0
    out = m.render()
    assert "completed" in out and "put latency" in out


# ------------------------------------------------------ service basics

def test_service_rejects_mismatched_library_geometry():
    from repro.libs import ISAL
    with pytest.raises(GeometryMismatch):
        ErasureCodingService(8, 4, library=ISAL(6, 3))


def test_put_then_get_round_trips_bytes():
    svc = ErasureCodingService(4, 2)
    payload = bytes(range(256)) * 3
    svc.submit(Request.put("obj", payload, arrival_ns=0.0))
    put_res, = svc.drain()
    assert put_res.ok and put_res.latency_ns > 0
    svc.submit(Request.get("obj", arrival_ns=svc.clock_ns + 1.0))
    get_res, = svc.drain()
    assert get_res.ok and get_res.value == payload


def test_get_of_missing_key_fails_without_retrying():
    svc = ErasureCodingService(4, 2)
    svc.submit(Request.get("ghost"))
    res, = svc.drain()
    assert not res.ok and "no such key" in res.error and res.retries == 0


def test_service_coalesces_concurrent_puts():
    svc = ErasureCodingService(
        4, 2, config=ServiceConfig(max_batch=8, max_queue_depth=32,
                                   threads_per_job=48))
    # One job occupies the whole Eq. (1) budget, so the simultaneous
    # arrivals back up in the queue and coalesce into big batches.
    assert svc.admission.capacity_threads == 48
    svc.submit_many(Request.put(f"k{i}", b"z" * 512) for i in range(16))
    results = svc.drain()
    assert all(r.ok for r in results)
    assert svc.metrics.count("coalesced_requests") > 0
    assert max(r.batch_size for r in results) > 1
    assert svc.metrics.count("batches") < 16


# ------------------------------------- fault injection + retry metrics

def test_injected_faults_are_retried_to_eventual_success():
    svc = ErasureCodingService(4, 2)
    inj = FaultInjector(svc.store, seed=5)
    svc.store.add_fault_hook(inj.transient_hook(rate=0.9,
                                                max_failures_per_key=2))
    svc.submit_many(Request.put(f"k{i}", b"y" * 256) for i in range(12))
    results = svc.drain()
    # max_failures_per_key < max_attempts: every put must succeed.
    assert all(r.ok for r in results)
    assert svc.metrics.count("faults_transient") > 0
    assert svc.metrics.count("retries") == svc.metrics.count("faults_transient")
    assert sum(r.retries for r in results) == svc.metrics.count("retries")
    assert svc.metrics.count("failed") == 0


def test_retries_exhausted_fails_the_request():
    svc = ErasureCodingService(
        4, 2, config=ServiceConfig(retry=RetryPolicy(max_attempts=2)))
    inj = FaultInjector(svc.store, seed=0)
    svc.store.add_fault_hook(inj.transient_hook(rate=1.0,
                                                max_failures_per_key=99))
    svc.submit(Request.put("doomed", b"x"))
    res, = svc.drain()
    assert not res.ok and res.retries == 1
    assert "transient" in res.error
    assert svc.metrics.count("failed") == 1


def test_transient_fault_is_raised_by_hook_directly():
    svc = ErasureCodingService(4, 2)
    inj = FaultInjector(svc.store, seed=0)
    svc.store.add_fault_hook(inj.transient_hook(rate=1.0,
                                                max_failures_per_key=1))
    with pytest.raises(TransientFault):
        svc.store.put("k", b"v")
    svc.store.put("k", b"v")  # second attempt passes (per-key cap)


# ------------------------------------------------------ degraded reads

def test_device_loss_serves_degraded_reads_bit_exact():
    svc = ErasureCodingService(4, 2, block_bytes=256)
    rng = np.random.default_rng(0)
    payloads = {f"k{i}": rng.integers(0, 256, 4 * 256,
                                      dtype=np.uint8).tobytes()
                for i in range(6)}
    svc.submit_many(Request.put(k, v) for k, v in payloads.items())
    assert all(r.ok for r in svc.drain())
    svc.store.mark_device_lost(0)
    assert svc.store.lost_devices == frozenset({0})
    svc.submit_many(Request.get(k, arrival_ns=svc.clock_ns + 1.0)
                    for k in payloads)
    results = svc.drain()
    assert all(r.ok for r in results)
    assert all(r.degraded for r in results)  # full-stripe objects
    assert svc.metrics.count("degraded_reads") == len(payloads)
    for r in results:
        assert r.value == payloads[r.request.key]


def test_restore_device_ends_degraded_mode():
    svc = ErasureCodingService(4, 2, block_bytes=256)
    svc.submit(Request.put("k", bytes(4 * 256)))
    svc.drain()
    svc.store.mark_device_lost(1)
    assert svc.store.is_degraded("k")
    svc.store.restore_device(1)
    assert not svc.store.is_degraded("k")
    svc.submit(Request.get("k", arrival_ns=svc.clock_ns + 1.0))
    res, = svc.drain()
    assert res.ok and not res.degraded


# ------------------------------- admission under load (the invariant)

def test_rejections_happen_only_at_the_eq1_cap():
    svc = ErasureCodingService(
        8, 4, config=ServiceConfig(max_queue_depth=8))
    svc.submit_many(put_wave(48, 2, payload_bytes=512,
                             mean_gap_ns=500.0, seed=3))
    results = svc.drain()
    rejected = [r for r in results if r.status.value == "rejected"]
    assert rejected, "load was meant to exceed the cap"
    assert svc.metrics.count("admission_rejected") == len(rejected)
    assert svc.metrics.count("rejected_below_cap") == 0
    assert svc.admission.peak_threads == svc.admission.capacity_threads
    assert all("Eq. (1)" in r.error for r in rejected)


def test_light_load_admits_everything():
    svc = ErasureCodingService(8, 4)
    svc.submit_many(put_wave(4, 1, mean_gap_ns=1e6, seed=1))
    results = svc.drain()
    assert all(r.ok for r in results)
    assert svc.metrics.count("admission_rejected") == 0


# ----------------------------------------------------- end-to-end shape

def test_full_traffic_cycle_metrics_snapshot_non_empty():
    svc = ErasureCodingService(8, 4)
    inj = FaultInjector(svc.store, seed=9)
    svc.store.add_fault_hook(inj.transient_hook(rate=0.2,
                                                max_failures_per_key=2))
    svc.submit_many(put_wave(32, 2, seed=2))
    put_results = svc.drain()
    stored = {r.request.key for r in put_results if r.ok}
    svc.store.mark_device_lost(3)
    svc.submit_many(r for r in get_wave(32, 2, start_ns=svc.clock_ns + 1e4)
                    if r.key in stored)
    get_results = svc.drain()
    assert all(r.ok for r in put_results if r.status.value != "rejected")
    assert all(r.ok for r in get_results)
    snap = svc.metrics.snapshot()
    assert snap["counters"], "metrics snapshot must not be empty"
    assert snap["counters"]["requests"] == len(svc.results)
    assert "put" in snap["latency"] and "get" in snap["latency"]
    assert snap["latency"]["put"]["p99_ns"] >= snap["latency"]["put"]["p50_ns"]
    assert snap["queue"]["samples"] > 0
    # Clock only moves forward, and every completion is timestamped.
    assert svc.clock_ns > 0
    assert all(r.latency_ns >= 0 for r in svc.results
               if r.latency_ns is not None)


def test_policy_switch_metric_exposed_via_library():
    from repro import DialgaConfig, DialgaEncoder
    enc = DialgaEncoder(4, 2, config=DialgaConfig(use_probe=False,
                                                  chunks=2))
    svc = ErasureCodingService(4, 2, library=enc)
    assert enc.policy_switches == 0
    svc.submit(Request.put("k", b"x" * 1024))
    svc.drain()
    # The counter key exists in the registry contract even when the
    # short run never flips policy.
    assert svc.metrics.count("policy_switches") >= 0
    assert enc.last_coordinator is not None
    assert enc.policy_switches == enc.last_coordinator.switches


def test_drain_is_reentrant_and_clock_persists():
    svc = ErasureCodingService(4, 2)
    svc.submit(Request.put("a", b"1"))
    svc.drain()
    t1 = svc.clock_ns
    svc.submit(Request.put("b", b"2", arrival_ns=t1 + 100.0))
    svc.drain()
    assert svc.clock_ns > t1
    assert len(svc.results) == 2


def test_raw_encode_requests_complete():
    svc = ErasureCodingService(8, 4,
                               config=ServiceConfig(threads_per_job=24))
    svc.submit_many(Request.encode(stripes=2) for _ in range(3))
    results = svc.drain()
    assert all(r.ok for r in results)
    # First job dispatches alone; the two queued behind it coalesce.
    assert svc.metrics.count("batches") == 2
    assert sorted(r.batch_size for r in results) == [1, 2, 2]
