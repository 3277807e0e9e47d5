"""Overload control: deadline admission, AIMD concurrency, retry
budgets, priority shedding, brownout and hedged reads."""

import math

import pytest

from repro.chaos import OVERLOAD_CAMPAIGNS, CampaignEngine
from repro.pmstore import FaultInjector
from repro.service import (
    BatchKey,
    BrownoutController,
    ConcurrencyController,
    ErasureCodingService,
    OverloadConfig,
    OverloadManager,
    Priority,
    Request,
    RequestKind,
    RequestQueue,
    RetryBudget,
    RetryPolicy,
    ServiceConfig,
    get_wave,
    put_wave,
)
from repro.service.request import RequestStatus


def _overload(**over) -> OverloadConfig:
    return OverloadConfig(**over)


def _svc(k=4, m=3, *, overload=None, **cfg) -> ErasureCodingService:
    config = ServiceConfig(overload=overload, **cfg)
    return ErasureCodingService(k, m, block_bytes=512, config=config)


# --------------------------------------------------------------- config

def test_overload_config_validates_knobs():
    for bad in (dict(target_batch_latency_ns=0.0),
                dict(aimd_decrease=1.0),
                dict(aimd_increase=0.0),
                dict(min_concurrency=0),
                dict(retry_budget_initial=10.0, retry_budget_cap=5.0),
                dict(brownout_enter_pressure=0.2,
                     brownout_exit_pressure=0.5),
                dict(brownout_enter_after=0),
                dict(hedge_quantile=1.0),
                dict(ewma_alpha=0.0)):
        with pytest.raises(ValueError):
            _overload(**bad)
    assert _overload().deadline_admission


# --------------------------------------------------------- retry budget

def test_retry_budget_spends_and_denies():
    b = RetryBudget(initial=2.0, ratio=0.5, cap=3.0)
    assert b.try_spend() and b.try_spend()
    assert not b.try_spend()          # bucket empty -> denied
    assert (b.spent, b.denied) == (2, 1)
    for _ in range(2):
        b.on_success()                # 2 * 0.5 = one whole token back
    assert b.try_spend()
    assert b.spent == 3


def test_retry_budget_saturates_at_cap_and_tracks_bound():
    b = RetryBudget(initial=1.0, ratio=1.0, cap=2.0)
    for _ in range(10):
        b.on_success()
    assert b.tokens == 2.0            # capped, not 11
    assert b.budget_bound == 1.0 + 1.0 * 10
    with pytest.raises(ValueError):
        RetryBudget(initial=5.0, ratio=0.1, cap=1.0)


# ------------------------------------------------------------------ aimd

def test_aimd_additive_increase_multiplicative_decrease():
    c = ConcurrencyController(16, target_ns=100.0, increase=2.0,
                              decrease=0.5, floor=2)
    c._limit = 8.0
    c.observe(50.0)                   # on target -> +2
    assert c.limit == 10 and c.increases == 1
    c.observe(500.0)                  # over target -> x0.5
    assert c.limit == 5 and c.decreases == 1
    for _ in range(10):
        c.observe(500.0)
    assert c.limit == 2               # clamped at the floor
    for _ in range(50):
        c.observe(50.0)
    assert c.limit == 16              # clamped at the Eq. (1) capacity


def test_aimd_rejects_bad_geometry():
    with pytest.raises(ValueError):
        ConcurrencyController(0, target_ns=1.0)
    with pytest.raises(ValueError):
        ConcurrencyController(4, target_ns=1.0, floor=5)


# -------------------------------------------------------------- brownout

def test_brownout_hysteresis_enter_and_exit():
    b = BrownoutController(enter_after=2, exit_after=3)
    assert b.observe(True, 1.0) is None and not b.active
    assert b.observe(True, 2.0) == "enter" and b.active
    # A saturated blip resets the clear streak.
    assert b.observe(False, 3.0) is None
    assert b.observe(True, 4.0) is None and b.active
    for t in (5.0, 6.0):
        assert b.observe(False, t) is None
    assert b.observe(False, 7.0) == "exit" and not b.active
    assert [kind for _, kind in b.transitions] == ["enter", "exit"]


# ----------------------------------------------------- priority eviction

def test_queue_evicts_lowest_priority_latest_arrival():
    q = RequestQueue(max_depth=4)
    fg = Request.get("fg")
    wr = Request.put("wr", b"x")
    bg1 = Request.encode(1)
    bg2 = Request.encode(2)
    for req in (fg, bg1, wr, bg2):
        q.push(BatchKey(req.kind, 4, 2, 512), req)
    # Strictly-lower-priority victim, latest arrival within the class.
    key, victim = q.evict_lower_priority(than=Priority.FOREGROUND)
    assert victim is bg2 and q.depth == 3
    _, victim = q.evict_lower_priority(than=Priority.FOREGROUND)
    assert victim is bg1
    _, victim = q.evict_lower_priority(than=Priority.FOREGROUND)
    assert victim is wr
    # Nothing strictly below FOREGROUND remains.
    assert q.evict_lower_priority(than=Priority.FOREGROUND) is None
    assert q.depth == 1


def test_priority_defaults_read_over_write_over_bulk():
    assert Request.get("a").resolved_priority is Priority.FOREGROUND
    assert Request.put("a", b"").resolved_priority is Priority.NORMAL
    assert Request.encode().resolved_priority is Priority.BACKGROUND
    explicit = Request.get("a", priority=Priority.BACKGROUND)
    assert explicit.resolved_priority is Priority.BACKGROUND


# ------------------------------------------------------ manager / admit

def test_manager_sheds_infeasible_deadline_at_enqueue():
    mgr = OverloadManager(_overload(), capacity_threads=8,
                          base_latency_ns=1_000.0)
    tight = Request.put("a", b"x", deadline_ns=500.0)
    decision = mgr.admit(tight, 0.0, queue_depth=0, max_batch=8,
                         active_threads=0, threads_per_job=1)
    assert decision is not None and decision.reason == "deadline"
    loose = Request.put("a", b"x", deadline_ns=1e9)
    assert mgr.admit(loose, 0.0, queue_depth=0, max_batch=8,
                     active_threads=0, threads_per_job=1) is None
    # No deadline -> never shed on the deadline path.
    free = Request.put("a", b"x")
    assert mgr.admit(free, 0.0, queue_depth=0, max_batch=8,
                     active_threads=0, threads_per_job=1) is None


def test_manager_brownout_sheds_background_only():
    mgr = OverloadManager(_overload(), capacity_threads=8)
    mgr.brownout.active = True
    bg = Request.encode(1)
    fg = Request.get("a")
    shed = mgr.admit(bg, 0.0, queue_depth=0, max_batch=8,
                     active_threads=0, threads_per_job=1)
    assert shed is not None and shed.reason == "brownout"
    assert mgr.admit(fg, 0.0, queue_depth=0, max_batch=8,
                     active_threads=0, threads_per_job=1) is None


def test_estimate_grows_with_backlog_and_shrinking_limit():
    mgr = OverloadManager(_overload(), capacity_threads=48,
                          base_latency_ns=10_000.0)
    idle = mgr.estimate_finish_ns(0.0, queue_depth=0, max_batch=8,
                                  active_threads=0, threads_per_job=1)
    busy = mgr.estimate_finish_ns(0.0, queue_depth=30, max_batch=8,
                                  active_threads=48, threads_per_job=1)
    assert busy > idle > 0.0
    mgr.concurrency._limit = 1.0      # collapsed limit -> fewer slots
    collapsed = mgr.estimate_finish_ns(0.0, queue_depth=30, max_batch=8,
                                       active_threads=48,
                                       threads_per_job=1)
    assert collapsed > busy


# -------------------------------------------------- service integration

def test_deadline_shed_is_fail_fast_and_counted():
    svc = _svc(overload=_overload(), max_queue_depth=8)
    svc.overload.ewma_batch_ns = 1e6  # learned: batches cost ~1ms
    svc.submit(Request.put("a", b"x" * 600, deadline_ns=1_000.0))
    results = svc.drain()
    assert [r.status for r in results] == [RequestStatus.SHED]
    assert results[0].latency_ns is None   # no decode work spent
    assert svc.metrics.counters["shed_total"] == 1
    assert svc.metrics.counters["shed_deadline"] == 1


def test_full_queue_evicts_background_for_foreground():
    # One batch slot as wide as the whole Eq. (1) cap: the first encode
    # occupies it, the second fills the depth-1 queue, and the arriving
    # foreground GET evicts the queued background job instead of being
    # turned away itself.
    svc = _svc(overload=_overload(), max_queue_depth=1, max_batch=1,
               threads_per_job=48)
    svc.submit_many([Request.encode(1, arrival_ns=0.0),
                     Request.encode(1, arrival_ns=0.0),
                     Request.get("missing", arrival_ns=0.0)])
    results = svc.drain()
    shed = [r for r in results if r.status is RequestStatus.SHED]
    assert len(shed) == 1
    assert shed[0].request.kind is RequestKind.ENCODE
    assert svc.metrics.counters["shed_priority"] == 1


def test_without_overload_full_queue_rejects_the_arrival():
    svc = _svc(max_queue_depth=1, max_batch=1, threads_per_job=48)
    svc.submit_many([Request.encode(1, arrival_ns=0.0),
                     Request.encode(1, arrival_ns=0.0),
                     Request.get("nope", arrival_ns=0.0)])
    results = svc.drain()
    rejected = [r for r in results if r.status is RequestStatus.REJECTED]
    assert len(rejected) == 1
    assert rejected[0].request.kind is RequestKind.GET
    assert "shed_total" not in svc.metrics.counters


def test_retry_budget_denial_fails_fast(monkeypatch):
    overload = _overload(retry_budget_initial=0.0,
                         retry_budget_ratio=0.0,
                         retry_budget_cap=0.0)
    svc = _svc(overload=overload,
               retry=RetryPolicy(max_attempts=5, base_delay_ns=100.0,
                                 seed=7))
    inj = FaultInjector(svc.store, seed=3)
    svc.store.add_fault_hook(inj.transient_hook(rate=1.0,
                                                max_failures_per_key=3))
    svc.submit(Request.put("a", b"y" * 600))
    (res,) = svc.drain()
    assert res.status is RequestStatus.FAILED
    assert "retry budget exhausted" in res.error
    assert res.retries == 0
    assert svc.metrics.counters["retry_budget_denied"] >= 1
    assert svc.overload.retry_budget.denied >= 1


def test_successes_refill_the_retry_budget():
    svc = _svc(overload=_overload(retry_budget_initial=1.0,
                                  retry_budget_ratio=0.5,
                                  retry_budget_cap=2.0))
    svc.submit_many(put_wave(4, 1, payload_bytes=600, seed=0))
    results = svc.drain()
    assert all(r.ok for r in results)
    budget = svc.overload.retry_budget
    assert budget.successes == len(results)
    assert budget.spent <= budget.budget_bound


def test_slow_device_hedge_wins_and_caps_tail():
    overload = _overload(hedge_min_delay_ns=1_000.0, hedge_min_samples=1)
    svc = _svc(overload=overload)
    svc.submit_many(put_wave(6, 2, payload_bytes=600, seed=1))
    svc.submit_many(get_wave(6, 2, start_ns=1e6, seed=2))
    svc.drain()
    svc.set_device_slow(1, penalty_ns=5e6)
    svc.submit_many(get_wave(6, 2, start_ns=svc.clock_ns + 10.0, seed=3))
    results = svc.drain()
    gets = [r for r in results if r.request.kind is RequestKind.GET]
    assert all(r.ok for r in gets)
    assert svc.metrics.counters["hedges_issued"] > 0
    assert svc.metrics.counters["hedges_won"] > 0
    assert any(r.degraded for r in gets)    # hedge served degraded
    # Hedge-won latency beat the 5 ms penalty path.
    assert all(r.latency_ns < 5e6 for r in gets if r.degraded)


def test_slow_device_marks_expire_and_clear():
    svc = _svc(overload=_overload())
    svc.set_device_slow(0, penalty_ns=1e6, until_ns=50.0)
    assert svc._slow_penalty_ns() == 1e6
    svc.clock_ns = 100.0
    assert svc._slow_penalty_ns() == 0.0    # expired with the clock
    assert svc.metrics.counters["slow_device_marks"] == 1


def test_aimd_limit_never_exceeds_eq1_cap_under_campaign():
    engine = CampaignEngine(
        OVERLOAD_CAMPAIGNS["retry_storm_overload"](seed=0),
        config=ServiceConfig(
            max_queue_depth=32, max_batch=8,
            retry=RetryPolicy(max_attempts=8, base_delay_ns=1e6, seed=0),
            overload=_overload(target_batch_latency_ns=200_000.0)))
    engine.run()
    svc = engine.service
    assert svc.overload.concurrency.limit <= svc.admission.capacity_threads
    assert svc.admission.peak_threads <= svc.admission.capacity_threads
    assert svc.overload.concurrency.decreases > 0  # the storm bit


def test_brownout_cycle_emits_counters_and_transitions():
    engine = CampaignEngine(
        OVERLOAD_CAMPAIGNS["slow_device_tail"](seed=0),
        config=ServiceConfig(
            max_queue_depth=32, max_batch=8,
            retry=RetryPolicy(max_attempts=8, base_delay_ns=1e6, seed=0),
            overload=_overload(target_batch_latency_ns=200_000.0,
                               brownout_enter_after=3,
                               brownout_exit_after=4,
                               brownout_enter_pressure=0.6)))
    report = engine.run()
    svc = engine.service
    kinds = [kind for _, kind in svc.overload.brownout.transitions]
    assert "enter" in kinds and "exit" in kinds
    assert svc.metrics.counters["brownout_enters"] >= 1
    assert svc.metrics.counters["brownout_exits"] >= 1
    assert report.audit.clean          # degraded serving lost no bytes


def test_no_overload_config_means_byte_identical_legacy_behavior():
    def run(config):
        svc = ErasureCodingService(4, 3, block_bytes=512, config=config)
        svc.submit_many(put_wave(12, 3, payload_bytes=700, seed=5))
        results = svc.drain()
        return ([(r.request.key, r.status, r.latency_ns) for r in results],
                dict(svc.metrics.counters))
    legacy = run(ServiceConfig(max_queue_depth=8))
    explicit_none = run(ServiceConfig(max_queue_depth=8, overload=None))
    assert legacy == explicit_none
    assert "shed_total" not in legacy[1]
    assert not any(k.startswith("hedges") for k in legacy[1])


def test_deadline_misses_counted_for_completed_but_late_requests():
    overload = _overload(deadline_admission=False)  # let them through
    svc = _svc(overload=overload)
    svc.submit(Request.put("late", b"z" * 600, deadline_ns=1.0))
    (res,) = svc.drain()
    assert res.ok                       # completed, but past deadline
    assert svc.metrics.counters["deadline_misses"] == 1
