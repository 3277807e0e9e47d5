"""Chaos scenario: canned fault campaigns against the self-healing service.

Not a paper figure — the robustness counterpart of the service
scenario. Each canned campaign from :mod:`repro.chaos` runs its timed
fault schedule (device loss, corruption waves, transient-fault storms,
traffic bursts) against a service with the self-healing loop attached,
and the shape checks pin the system-level guarantees:

* every campaign ends with a **clean durability audit** — no
  acknowledged write lost or silently corrupted;
* the kitchen-sink campaign really did suffer a device loss, a
  corruption wave and a retry storm mid-run, concurrently;
* the system **settles** — loss marks repaired, breakers closed —
  within the simulated window.

The notes carry every campaign report verbatim, so
``scripts/check_rerun.py`` compares two runs on them.
"""

from __future__ import annotations

from repro.bench.report import FigureResult
from repro.chaos import CANNED_CAMPAIGNS, CampaignEngine


def chaos_scenario(volume: int | None = None, seed: int = 0) -> FigureResult:
    """Canned chaos campaigns: fault schedules vs the self-healing service.

    ``volume`` is accepted for CLI uniformity but unused (campaign
    traffic shapes are part of the campaign definition); ``seed`` picks
    the deterministic variant of every campaign.
    """
    fig = FigureResult(
        "chaos_scenario",
        f"chaos campaigns vs self-healing EC service (seed {seed})",
        ["requests", "completed", "availability", "faults", "trips",
         "repairs", "mttr_ms", "acked", "lost", "corrupted"])
    reports = {}
    for name in sorted(CANNED_CAMPAIGNS):
        rep = CampaignEngine(CANNED_CAMPAIGNS[name](seed=seed)).run()
        reports[name] = rep
        fig.notes.append("campaign report:\n" + rep.render())
        fig.add_row(
            name,
            requests=rep.requests,
            completed=rep.completed,
            availability=rep.availability,
            faults=sum(rep.faults.values()),
            trips=rep.counters.get("health_trips", 0),
            repairs=rep.counters.get("repair_blocks_rebuilt", 0),
            mttr_ms=rep.mean_mttr_ns / 1e6,
            acked=rep.audit.acknowledged,
            lost=len(rep.audit.lost),
            corrupted=len(rep.audit.corrupted))
        fig.check(
            f"{name}: durability audit clean (no acknowledged byte "
            "lost or silently corrupted)",
            rep.durability_clean and rep.audit.acknowledged > 0,
            rep.audit.summary())
        fig.check(
            f"{name}: system settled (losses repaired, breakers closed)",
            rep.settled_at_ns is not None,
            f"settled_at={rep.settled_at_ns}")
        fig.check(
            f"{name}: rejections only at the Eq. (1) cap",
            rep.counters.get("rejected_below_cap", 0) == 0,
            f"below_cap={rep.counters.get('rejected_below_cap', 0)}")

    ks = reports["kitchen_sink"]
    fig.check(
        "kitchen-sink suffered a device loss, a corruption wave AND a "
        "retry storm mid-run",
        ks.faults.get("device_loss", 0) >= 1
        and (ks.faults.get("bit_flip", 0) + ks.faults.get("scribble", 0)) >= 3
        and ks.faults.get("transient", 0) >= 3,
        f"faults={dict(sorted(ks.faults.items()))}")
    fig.check(
        "kitchen-sink self-healed: breaker tripped, repairs rebuilt "
        "blocks, device recovered",
        ks.counters.get("health_trips", 0) >= 1
        and ks.counters.get("repair_blocks_rebuilt", 0) >= 1
        and ks.counters.get("health_recoveries", 0) >= 1,
        f"trips={ks.counters.get('health_trips', 0)} "
        f"rebuilt={ks.counters.get('repair_blocks_rebuilt', 0)} "
        f"recoveries={ks.counters.get('health_recoveries', 0)}")
    return fig


ALL_CHAOS_SCENARIOS = {
    "chaos": chaos_scenario,
}
