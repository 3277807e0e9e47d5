"""Health monitoring, retry jitter and the self-healing service loop."""

import pytest

from repro.obs import prometheus_text
from repro.pmstore import FaultInjector, PMStore
from repro.service import (
    ErasureCodingService,
    HealthMonitor,
    HealthState,
    Request,
    RetryPolicy,
    SelfHealer,
    ServiceConfig,
)
from repro.service.healing import RepairQueue, ScrubScheduler

# -- RetryPolicy validation + jitter (satellite 1) --------------------------


def test_retry_policy_rejects_bad_max_delay():
    with pytest.raises(ValueError, match="max_delay_ns"):
        RetryPolicy(max_delay_ns=-1.0)
    with pytest.raises(ValueError, match="max_delay_ns"):
        RetryPolicy(base_delay_ns=1000.0, max_delay_ns=500.0)


def test_retry_policy_rejects_bad_jitter():
    with pytest.raises(ValueError, match="jitter"):
        RetryPolicy(jitter=-0.1)
    with pytest.raises(ValueError, match="jitter"):
        RetryPolicy(jitter=1.5)


def test_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(jitter=1.0, seed=7, base_delay_ns=1000.0,
                         factor=1.0, max_delay_ns=10_000.0)
    for token in range(20):
        d1 = policy.delay_ns(1, token=token)
        assert d1 == policy.delay_ns(1, token=token)   # reproducible
        assert 500.0 <= d1 <= 1500.0                   # [0.5x, 1.5x]


def test_jitter_desynchronizes_tokens():
    policy = RetryPolicy(jitter=0.5, seed=0, base_delay_ns=1000.0)
    delays = {policy.delay_ns(1, token=t) for t in range(16)}
    assert len(delays) > 12  # callers spread out, not in lockstep


def test_zero_jitter_keeps_exact_schedule():
    policy = RetryPolicy(base_delay_ns=100.0, factor=2.0,
                         max_delay_ns=350.0)
    assert [policy.delay_ns(i, token=99) for i in (1, 2, 3)] == \
        [100.0, 200.0, 350.0]
    assert sum(policy.delay_ns(i) for i in (1, 2, 3)) == 650.0


def test_jitter_respects_max_delay_cap():
    policy = RetryPolicy(jitter=1.0, base_delay_ns=1000.0,
                         max_delay_ns=1000.0)
    assert all(policy.delay_ns(1, token=t) <= 1000.0 for t in range(50))


# -- HealthMonitor state machine --------------------------------------------


def test_breaker_trips_after_threshold_in_window():
    mon = HealthMonitor(6, window_ns=1000.0, trip_threshold=3)
    assert mon.record_error(0, 10.0) is HealthState.CLOSED
    assert mon.record_error(0, 20.0) is HealthState.CLOSED
    assert mon.record_error(0, 30.0) is HealthState.OPEN
    assert mon.open_devices() == [0]


def test_stale_errors_fall_out_of_window():
    mon = HealthMonitor(6, window_ns=100.0, trip_threshold=3)
    mon.record_error(1, 0.0)
    mon.record_error(1, 10.0)
    # Third error arrives after the first two expired: no trip.
    assert mon.record_error(1, 500.0) is HealthState.CLOSED


def test_cooldown_half_open_then_clean_probe_closes():
    mon = HealthMonitor(4, window_ns=100.0, trip_threshold=1,
                        cooldown_ns=1000.0)
    mon.record_error(2, 0.0)
    assert mon.state(2) is HealthState.OPEN
    assert mon.tick(500.0) == []            # cooldown not elapsed
    assert mon.tick(1000.0) == [2]          # half-opens
    mon.probe_result(2, 1001.0, clean=True)
    assert mon.state(2) is HealthState.CLOSED
    assert mon.mttr_ns() == [1001.0]


def test_dirty_probe_reopens_and_mttr_spans_flapping():
    mon = HealthMonitor(4, window_ns=100.0, trip_threshold=1,
                        cooldown_ns=100.0)
    mon.record_error(0, 0.0)
    mon.tick(100.0)
    mon.probe_result(0, 110.0, clean=False)     # dirty: back to OPEN
    assert mon.state(0) is HealthState.OPEN
    mon.tick(210.0)
    mon.probe_result(0, 220.0, clean=True)
    # One incident, measured from the first OPEN.
    assert mon.mttr_ns() == [220.0]


def test_error_while_half_open_reopens():
    mon = HealthMonitor(4, window_ns=100.0, trip_threshold=1,
                        cooldown_ns=100.0)
    mon.record_error(3, 0.0)
    mon.tick(100.0)
    assert mon.state(3) is HealthState.HALF_OPEN
    assert mon.record_error(3, 105.0) is HealthState.OPEN


def test_monitor_summary_shape():
    mon = HealthMonitor(4, trip_threshold=1)
    mon.record_error(1, 5.0)
    mon.record_transient(6.0)
    s = mon.summary()
    assert s["devices"]["1"]["state"] == "open"
    assert s["transient_faults"] == 1
    assert s["incidents_resolved"] == 0


def test_monitor_validates():
    with pytest.raises(ValueError):
        HealthMonitor(0)
    with pytest.raises(ValueError):
        HealthMonitor(4, trip_threshold=0)


# -- RepairQueue / ScrubScheduler -------------------------------------------


def _store_with_losses():
    store = PMStore(4, 3, block_bytes=256)
    for i in range(8):
        store.put(f"o{i}", bytes([i]) * 600)
    return store


def test_repair_queue_pops_most_damaged_first():
    store = _store_with_losses()
    store.mark_lost(0, 1)
    store.mark_lost(2, 0)
    store.mark_lost(2, 3)
    q = RepairQueue()
    assert q.enqueue_backlog(store) == 2
    assert q.pop_most_urgent(store) == 2    # two losses beats one
    assert q.pop_most_urgent(store) == 0
    assert q.pop_most_urgent(store) is None


def test_repair_queue_skips_healed_and_unrepairable():
    store = _store_with_losses()
    store.mark_lost(0, 1)
    q = RepairQueue()
    q.enqueue(0)
    store.repair(0)                      # healed behind the queue's back
    assert q.pop_most_urgent(store) is None
    q.unrepairable.add(1)
    q.enqueue(1)                         # parked stripes never re-enter
    assert len(q) == 0


def test_scrub_scheduler_paces_and_wraps():
    sched = ScrubScheduler(period_ns=100.0, stripes_per_slice=3)
    assert sched.due(0.0)
    assert sched.next_slice(5, 0.0) == [0, 1, 2]
    assert not sched.due(50.0)
    assert sched.due(100.0)
    assert sched.next_slice(5, 100.0) == [3, 4, 0]   # round-robin wrap
    assert sched.next_slice(0, 200.0) == []


def test_scrub_scheduler_validates():
    with pytest.raises(ValueError):
        ScrubScheduler(period_ns=0.0)
    with pytest.raises(ValueError):
        ScrubScheduler(stripes_per_slice=0)


# -- SelfHealer end-to-end ---------------------------------------------------


def _healing_service(trip_threshold=2):
    svc = ErasureCodingService(
        4, 3, block_bytes=256,
        config=ServiceConfig(max_queue_depth=16, max_batch=4))
    healer = SelfHealer(
        monitor=HealthMonitor(4 + 3, window_ns=1e7,
                              trip_threshold=trip_threshold,
                              cooldown_ns=5e6),
        scrub=ScrubScheduler(period_ns=100_000.0, stripes_per_slice=2))
    svc.attach_healer(healer)
    return svc, healer


def test_degraded_reads_trip_breaker_and_repairs_run_in_idle_gaps():
    svc, healer = _healing_service()
    svc.submit_many([Request.put(f"k{i}", bytes([i]) * 700,
                                 arrival_ns=float(i)) for i in range(6)])
    svc.drain()
    svc.store.mark_device_lost(2)
    t0 = svc.clock_ns
    # Back-to-back degraded reads (no idle gap): the symptoms pile up
    # and trip the breaker before any maintenance can mask them.
    svc.submit_many([Request.get(f"k{i}", arrival_ns=t0)
                     for i in range(4)])
    # One straggler far out: drain's idle gap lets repairs run first.
    svc.submit(Request.get("k5", arrival_ns=t0 + 5e7))
    results = {r.request.key: r for r in svc.drain()}
    assert all(r.ok for r in results.values())
    assert results["k0"].degraded
    assert not results["k5"].degraded       # healed before it arrived
    assert svc.metrics.count("health_trips") == 1
    assert svc.metrics.count("repair_blocks_rebuilt") >= 1
    assert svc.store.stripes_with_losses() == []


def test_breaker_recovery_closes_after_repairs():
    svc, healer = _healing_service()
    svc.submit_many([Request.put(f"k{i}", bytes([i]) * 700,
                                 arrival_ns=float(i)) for i in range(6)])
    svc.drain()
    svc.store.mark_device_lost(1)
    t0 = svc.clock_ns
    svc.submit_many([Request.get(f"k{i}", arrival_ns=t0)
                     for i in range(4)])
    svc.drain()
    assert healer.monitor.state(1) is HealthState.OPEN
    # Quiet period: repeated maintenance windows advancing the clock
    # (as the chaos engine's settle loop does) so the cooldown elapses
    # and the half-open probe can run.
    for _ in range(30):
        end = svc.clock_ns + 5e6
        svc.run_maintenance(end)
        svc.clock_ns = max(svc.clock_ns, end)
        if healer.monitor.state(1) is HealthState.CLOSED:
            break
    assert healer.monitor.state(1) is HealthState.CLOSED
    assert svc.metrics.count("health_recoveries") == 1
    assert healer.monitor.mttr_ns()  # incident resolved, MTTR recorded
    assert 1 not in svc.store.lost_devices


def test_trip_refuses_isolation_past_parity_budget():
    svc, healer = _healing_service(trip_threshold=1)
    svc.submit_many([Request.put(f"k{i}", bytes([i]) * 700,
                                 arrival_ns=float(i)) for i in range(6)])
    svc.drain()
    # Stripe 0 already carries m erasures; isolating one more device
    # would exceed the budget, so the trip must refuse.
    for block in range(svc.store.m):
        svc.store.mark_lost(0, block)
    healer.on_corruption(0, svc.store.m, now_ns=svc.clock_ns)
    assert svc.metrics.count("health_isolation_refused") == 1
    assert svc.store.m not in svc.store.lost_devices


def test_background_scrub_finds_silent_corruption_and_counts_it():
    svc, healer = _healing_service()
    svc.submit_many([Request.put(f"k{i}", bytes([i]) * 700,
                                 arrival_ns=float(i)) for i in range(6)])
    svc.drain()
    inj = FaultInjector(svc.store, seed=9)
    inj.bit_flip(stripe=0, block=0, nbits=2)       # silent
    svc.run_maintenance(svc.clock_ns + 5e7)
    assert svc.metrics.count("scrub_corrupt_blocks") >= 1
    assert svc.metrics.count("repair_blocks_rebuilt") >= 1
    assert svc.store.get("k0") == bytes([0]) * 700
    # Satellite 2: the counters surface through the Prometheus exporter.
    text = prometheus_text(svc.metrics)
    assert "scrub_corrupt_blocks" in text
    assert "repair_blocks_rebuilt" in text


def test_healer_requires_positive_thread_budget():
    with pytest.raises(ValueError):
        SelfHealer(maintenance_threads=0)
