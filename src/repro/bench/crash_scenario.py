"""Crash scenario: exhaustive crash-point enumeration + recovery gate.

Not a paper figure — the crash-consistency counterpart of the chaos
scenario. For each :class:`~repro.crash.scenarios.CrashScenario` the
:class:`~repro.crash.injector.CrashInjector` cuts power at *every*
flush/fence boundary (plus seeded adversarial line-tearing rounds),
recovers through the stripe WAL, and asserts the four invariants —
acked-write durability, stripe data/parity consistency, checksum
validity, idempotent double-replay. The shape checks pin:

* every enumerated crash point of every scenario passes all four
  invariants (the write hole stays closed at each of the >100
  boundaries the acceptance gate demands);
* the adversarial tear rounds — where any pending line may persist
  whole, revert whole, or tear at an 8 B store boundary — pass too;
* the service-level ``power_cycle`` chaos campaign ends with a clean
  durability audit after two mid-run power cuts.

Rows carry a digest of every crash point's report line, so
``scripts/check_rerun.py`` compares two runs on each point.
"""

from __future__ import annotations

from repro.bench.report import FigureResult
from repro.chaos import CANNED_CAMPAIGNS
from repro.chaos.engine import CampaignEngine
from repro.crash import CrashInjector, degraded_scenario, smoke_scenario


def crash_scenario(volume: int | None = None, seed: int = 0) -> FigureResult:
    """Exhaustive crash-point enumeration vs the stripe WAL recovery.

    ``volume`` is accepted for CLI uniformity but unused (scenario op
    sequences are part of the scenario definition); ``seed`` picks the
    deterministic payloads and tear rounds.
    """
    fig = FigureResult(
        "crash_scenario",
        f"crash-point enumeration vs WAL recovery (seed {seed})",
        ["boundaries", "points", "tears", "passed", "rolled_forward",
         "damaged_lines", "failures", "points_sha"])
    reports = {}
    for scenario in (smoke_scenario(seed), degraded_scenario(seed)):
        report = CrashInjector(scenario).campaign(tear_rounds=25, seed=seed)
        reports[scenario.name] = report
        fig.add_row(
            scenario.name,
            boundaries=report.boundaries_total,
            points=report.points_run,
            tears=report.tear_rounds,
            passed=report.points_passed,
            rolled_forward=report.rolled_forward_total,
            damaged_lines=report.damaged_lines_total,
            failures=len(report.failures),
            points_sha=report.points_sha256[:16])
        fig.check(
            f"{scenario.name}: every crash point passes all four "
            "invariants (acked durability, data/parity consistency, "
            "checksum validity, idempotent replay)",
            report.all_passed,
            report.summary())

    smoke = reports[smoke_scenario(seed).name]
    fig.check(
        "smoke enumeration is exhaustive and large enough "
        "(every flush/fence boundary, >= 100 crash points)",
        smoke.boundaries_total >= 100
        and smoke.points_run >= smoke.boundaries_total,
        f"{smoke.boundaries_total} boundaries, "
        f"{smoke.points_run} points run")
    fig.check(
        "crashes actually damaged state before recovery "
        "(the sweep is not vacuous)",
        smoke.damaged_lines_total > 0
        and smoke.rolled_forward_total > 0,
        f"damaged={smoke.damaged_lines_total} "
        f"rolled_forward={smoke.rolled_forward_total}")

    # Service-level gate: the power_cycle chaos campaign (two mid-run
    # cuts, WAL recovery, re-queue, auditor reconciliation).
    campaign = CampaignEngine(CANNED_CAMPAIGNS["power_cycle"](seed=seed)).run()
    fig.check(
        "power_cycle campaign: two power cuts recovered with a clean "
        "durability audit (no acknowledged byte lost)",
        campaign.durability_clean
        and campaign.faults.get("power_cut", 0) == 2
        and campaign.counters.get("wal_txns_replayed", 0) > 0,
        campaign.audit.summary())

    for name in sorted(reports):
        fig.notes.append(f"{name}: {reports[name].summary()}")
    fig.notes.append("power_cycle campaign report:\n" + campaign.render())
    return fig


ALL_CRASH_SCENARIOS = {
    "crash": crash_scenario,
}
