"""Overload scenario: graceful degradation under flash crowds, slow
devices and retry storms.

Not a paper figure — the overload-resilience counterpart of the chaos
scenario. Every row runs a canned overload campaign (or a direct
deadline-admission demo) against a service with
:class:`~repro.service.overload.OverloadConfig` enabled, and the shape
checks pin:

* with retry budgets on, **goodput under the retry storm stays within
  80% of the storm-free baseline**, while the no-budget counterfactual
  collapses into metastable backlog (the `retry_storm_nobudget` row);
* **zero acked-byte durability violations** across every overload
  campaign, per the :class:`~repro.chaos.audit.DurabilityAuditor`;
* **brownout engages AND disengages** — both transitions land as
  ``overload.brownout_enter`` / ``overload.brownout_exit`` trace
  events when a tracer is recording;
* deadline-infeasible arrivals are shed **fail-fast at enqueue**, and
  hedged reads cap the slow-device tail.

The notes carry three campaign reports verbatim, so
``scripts/check_rerun.py`` compares two runs on them.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.report import FigureResult
from repro.chaos import OVERLOAD_CAMPAIGNS, CampaignEngine
from repro.service import (
    ErasureCodingService,
    OverloadConfig,
    ServiceConfig,
    put_wave,
)
from repro.service.retry import RetryPolicy


def _overload_config(*, retry_budget: bool = True) -> OverloadConfig:
    """The scenario's controller tuning (shared across rows)."""
    return OverloadConfig(
        target_batch_latency_ns=200_000.0,
        aimd_increase=4.0,
        retry_budget_enabled=retry_budget,
        retry_budget_initial=2.0,
        retry_budget_ratio=0.05,
        retry_budget_cap=4.0,
        brownout_enter_pressure=0.6,
    )


def _service_config(seed: int, *, retry_budget: bool = True) -> ServiceConfig:
    """Chaos-engine service knobs plus an aggressive retry schedule.

    The long exponential backoff (8 attempts, 2 ms base) is what makes
    *unbudgeted* retries dangerous: one storm-window batch can stack
    hundreds of milliseconds of backoff while holding its admission
    threads — exactly the amplification the budget caps.
    """
    return ServiceConfig(
        max_queue_depth=32, max_batch=8, verify_reads=True,
        retry=RetryPolicy(max_attempts=8, base_delay_ns=1e6, factor=2.0,
                          jitter=0.5, seed=seed),
        overload=_overload_config(retry_budget=retry_budget))


def _run_campaign(name: str, seed: int, *, retry_budget: bool = True,
                  drop_kinds: tuple = ()):
    """Run one overload campaign; returns the engine (service attached)."""
    campaign = OVERLOAD_CAMPAIGNS[name](seed=seed)
    if drop_kinds:
        campaign = replace(
            campaign,
            name=f"{campaign.name}_no_{'_'.join(drop_kinds)}",
            actions=tuple(a for a in campaign.actions
                          if a.kind not in drop_kinds))
    engine = CampaignEngine(
        campaign, config=_service_config(seed, retry_budget=retry_budget))
    engine.report = engine.run()
    return engine


def _row_from_engine(fig: FigureResult, label: str, engine) -> dict:
    """Add one campaign row; returns the numbers used by cross-checks."""
    rep = engine.report
    svc = engine.service
    c = svc.metrics.counters
    requests = rep.requests
    completed = rep.completed
    goodput = completed / requests if requests else 0.0
    shed = c.get("shed_total", 0)
    row = {
        "requests": requests,
        "completed": completed,
        "goodput_fraction": goodput,
        "shed": shed,
        "shed_rate": shed / requests if requests else 0.0,
        "p99_ms": (svc.metrics.latency["put"].p99 / 1e6
                   if "put" in svc.metrics.latency else 0.0),
        "deadline_misses": c.get("deadline_misses", 0),
        "retries": c.get("retries", 0),
        "hedges_won": c.get("hedges_won", 0),
        "brownouts": c.get("brownout_enters", 0),
        "acked": rep.audit.acknowledged,
        "lost": len(rep.audit.lost),
    }
    fig.add_row(label, **row)
    return row


def overload_scenario(volume: int | None = None, seed: int = 0) -> FigureResult:
    """Overload campaigns: deadline admission, retry budgets, brownout,
    hedged reads — with a no-budget metastability counterfactual.

    ``volume`` is accepted for CLI uniformity but unused (campaign
    traffic shapes are part of the campaign definition); ``seed`` picks
    the deterministic variant of every campaign.
    """
    fig = FigureResult(
        "overload_scenario",
        f"overload resilience: shed / adapt / degrade gracefully "
        f"(seed {seed})",
        ["requests", "completed", "goodput_fraction", "shed", "shed_rate",
         "p99_ms", "deadline_misses", "retries", "hedges_won", "brownouts",
         "acked", "lost"])

    # -- retry-storm metastability: baseline vs budget vs counterfactual --
    baseline_eng = _run_campaign("retry_storm_overload", seed,
                                 drop_kinds=("retry_storm",))
    budget_eng = _run_campaign("retry_storm_overload", seed)
    nobudget_eng = _run_campaign("retry_storm_overload", seed,
                                 retry_budget=False)
    base = _row_from_engine(fig, "storm_free_baseline", baseline_eng)
    with_budget = _row_from_engine(fig, "retry_storm_budget", budget_eng)
    no_budget = _row_from_engine(fig, "retry_storm_nobudget", nobudget_eng)

    fig.check(
        "retry budget holds goodput within 80% of the storm-free "
        "baseline under the retry storm",
        with_budget["goodput_fraction"]
        >= 0.8 * base["goodput_fraction"] > 0,
        f"baseline={base['goodput_fraction']:.3f} "
        f"budget={with_budget['goodput_fraction']:.3f}")
    fig.check(
        "no-budget counterfactual collapses (metastable retry "
        "amplification: goodput below 60% of the budgeted run)",
        no_budget["goodput_fraction"]
        < 0.6 * with_budget["goodput_fraction"],
        f"nobudget={no_budget['goodput_fraction']:.3f} "
        f"budget={with_budget['goodput_fraction']:.3f}")
    budget = budget_eng.service.overload.retry_budget
    fig.check(
        "retry spend never exceeded the token-bucket bound "
        "(spent <= initial + ratio * successes)",
        budget.spent <= budget.budget_bound,
        f"spent={budget.spent} bound={budget.budget_bound:.2f} "
        f"denied={budget.denied}")

    # -- flash crowd: bounded shed, reverse-priority order ----------------
    crowd_eng = _run_campaign("flash_crowd", seed)
    crowd = _row_from_engine(fig, "flash_crowd", crowd_eng)
    fig.check(
        "flash crowd: shed rate bounded (some load shed, most served)",
        0 < crowd["shed_rate"] <= 0.5,
        f"shed_rate={crowd['shed_rate']:.3f}")

    # -- slow device: hedged reads cap the tail ---------------------------
    slow_eng = _run_campaign("slow_device_tail", seed)
    slow = _row_from_engine(fig, "slow_device_hedge", slow_eng)
    slow_c = slow_eng.service.metrics.counters
    fig.check(
        "slow device: hedges issued and won against the degraded path",
        slow_c.get("hedges_issued", 0) > 0
        and slow_c.get("hedges_won", 0) > 0,
        f"issued={slow_c.get('hedges_issued', 0)} "
        f"won={slow_c.get('hedges_won', 0)} "
        f"cancelled={slow_c.get('hedges_cancelled', 0)}")

    # -- brownout: engaged AND disengaged ---------------------------------
    transitions = []
    for eng in (budget_eng, nobudget_eng, crowd_eng, slow_eng):
        transitions.extend(kind for _, kind
                           in eng.service.overload.brownout.transitions)
    fig.check(
        "brownout engaged and disengaged during the campaigns "
        "(enter + exit transitions observed)",
        "enter" in transitions and "exit" in transitions,
        f"transitions={transitions}")

    # -- deadline admission: fail-fast shed at enqueue --------------------
    # Few wide slots (16 threads/job over the 48-thread cap = 3 batch
    # slots), so a saturated queue translates into real, *estimable*
    # queue wait — the regime deadline admission is built for.
    svc = ErasureCodingService(4, 3, block_bytes=512,
                               config=replace(_service_config(seed),
                                              threads_per_job=16))
    # Warmup wave (no deadlines) teaches the queue-wait estimator what
    # a saturated batch costs; the tight-deadline wave that follows is
    # then *provably* infeasible at enqueue and shed fail-fast.
    svc.submit_many(put_wave(10, 4, payload_bytes=900, mean_gap_ns=250.0,
                             seed=seed))
    svc.drain()
    svc.submit_many(put_wave(20, 4, payload_bytes=900, mean_gap_ns=250.0,
                             start_ns=svc.clock_ns, seed=seed + 1,
                             deadline_slack_ns=20_000.0))
    results = svc.drain()
    shed = [r for r in results if r.status.value == "shed"]
    c = svc.metrics.counters
    fig.add_row(
        "tight_deadlines",
        requests=len(results),
        completed=sum(r.ok for r in results),
        goodput_fraction=(sum(r.ok for r in results) / len(results)
                          if results else 0.0),
        shed=len(shed),
        shed_rate=len(shed) / len(results) if results else 0.0,
        p99_ms=svc.metrics.latency["put"].p99 / 1e6
        if "put" in svc.metrics.latency else 0.0,
        deadline_misses=c.get("deadline_misses", 0),
        retries=c.get("retries", 0),
        hedges_won=0, brownouts=c.get("brownout_enters", 0),
        acked=0, lost=0)
    fig.check(
        "infeasible deadlines are shed fail-fast at enqueue "
        "(no decode work spent on them)",
        c.get("shed_deadline", 0) > 0
        and all(r.latency_ns is None for r in shed),
        f"shed_deadline={c.get('shed_deadline', 0)} "
        f"expired_in_queue={c.get('deadline_expired_queued', 0)}")
    fig.check(
        "adaptive concurrency never exceeded the Eq. (1) cap",
        svc.overload.concurrency.limit
        <= svc.admission.capacity_threads
        and svc.admission.peak_threads <= svc.admission.capacity_threads,
        f"limit={svc.overload.concurrency.limit} "
        f"cap={svc.admission.capacity_threads} "
        f"peak={svc.admission.peak_threads}")

    # -- durability: zero acked-byte loss everywhere ----------------------
    for label, eng in (("storm_free_baseline", baseline_eng),
                       ("retry_storm_budget", budget_eng),
                       ("retry_storm_nobudget", nobudget_eng),
                       ("flash_crowd", crowd_eng),
                       ("slow_device_hedge", slow_eng)):
        fig.check(
            f"{label}: durability audit clean (every acked byte "
            "readable across the overload episode)",
            eng.report.audit.clean and eng.report.audit.acknowledged > 0,
            eng.report.audit.summary())

    for eng in (crowd_eng, slow_eng, budget_eng):
        fig.notes.append("campaign report:\n" + eng.report.render())
    return fig


ALL_OVERLOAD_SCENARIOS = {
    "overload": overload_scenario,
}
