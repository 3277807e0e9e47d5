"""Audit scenario: decision ledger + counterfactual regret replay.

Not a paper figure — the decision-observability counterpart of the
crash/chaos scenarios. Two fig-10-style adaptive episodes run under a
:class:`~repro.obs.audit.DecisionLedger`:

* a **pressure** episode (10 threads, probe off) where the §4.1.2
  thresholds fire and the coordinator switches to the high-pressure
  policy mid-job;
* a **probe** episode (low pressure, probe on) whose initial decision
  carries a hill-climb distance-search trajectory.

Each ledger is then scored by the counterfactual oracle replay
(:func:`~repro.obs.replay.replay_decisions`): every decision window is
re-simulated under every candidate policy through the cached
:func:`repro.simulate` facade, yielding per-switch regret and an
episode-level oracle-normalized score. The shape checks pin:

* the pressure episode switches at least once, with the contention and
  inefficient-prefetcher predicates both recorded as fired;
* every decision carries its evidence (counter deltas, threshold
  evaluations, a non-empty candidate set);
* the probe episode's initial decision recorded a hill-climb
  trajectory ending at the chosen distance;
* the replay's content cache engaged (candidate windows recur).

Rows carry a ledger JSONL digest and the notes the regret tables, so
``scripts/check_rerun.py`` compares two runs on both.
"""

from __future__ import annotations

import hashlib

from repro.bench.report import FigureResult
from repro.core.dialga import DialgaConfig, DialgaEncoder
from repro.obs import ledger_from_coordinator, replay_decisions
from repro.simulator.params import HardwareConfig
from repro.trace.workload import Workload


def _episode(fig: FigureResult, label: str, *, nthreads: int, stripes: int,
             use_probe: bool):
    """Run one adaptive encode episode and add its row to ``fig``;
    returns (ledger, regret report, fired predicate names)."""
    wl = Workload(k=8, m=4, block_bytes=1024, nthreads=nthreads)
    wl = wl.with_(data_bytes_per_thread=stripes * wl.stripe_data_bytes)
    hw = HardwareConfig()
    enc = DialgaEncoder(8, 4, config=DialgaConfig(
        use_probe=use_probe, chunks=6))
    enc.run(wl, hw)
    ledger = ledger_from_coordinator(enc.last_coordinator)
    report = replay_decisions(ledger)
    fired = sorted({c.name for r in ledger.records for c in r.checks
                    if c.fired})
    fig.add_row(
        label,
        decisions=len(ledger.records),
        switches=len(ledger.switches),
        fired=",".join(fired) or "-",
        oracle_score=report.oracle_score,
        optimal_pct=100.0 * report.optimal_fraction,
        regret_ns_per_byte=report.total_regret_ns_per_byte,
        cache_hits=report.cache_stats.get("hits", 0),
        cache_misses=report.cache_stats.get("misses", 0),
        ledger_sha=hashlib.sha256(ledger.to_jsonl().encode()).hexdigest()[:16])
    return ledger, report, fired


def audit_scenario(volume: int | None = None, seed: int = 0) -> FigureResult:
    """Decision ledger + counterfactual oracle replay of two adaptive
    episodes (per-switch regret, oracle-normalized score).

    ``volume`` is accepted for CLI uniformity but unused (episode sizes
    are part of the scenario definition); ``seed`` perturbs the
    pressure episode's stripe count, so distinct seeds audit distinct
    decision sequences.
    """
    fig = FigureResult(
        "audit_scenario",
        f"coordinator decision audit vs per-window oracle (seed {seed})",
        ["decisions", "switches", "fired", "oracle_score", "optimal_pct",
         "regret_ns_per_byte", "cache_hits", "cache_misses", "ledger_sha"])

    # Pressure episode: thresholds fire, the coordinator switches.
    stripes = 160 + (seed % 4) * 12
    led_p, rep_p, fired_p = _episode(fig, "pressure (10 threads)",
                                     nthreads=10, stripes=stripes,
                                     use_probe=False)
    # Probe episode: low pressure, hill-climb distance search on.
    led_q, rep_q, _ = _episode(fig, "probe (2 threads)", nthreads=2,
                               stripes=24, use_probe=True)

    fig.check(
        "pressure episode: the coordinator switched policy at least "
        "once, with both Section-4.1.2 predicates (contention, "
        "inefficient prefetcher) recorded as fired",
        len(led_p.switches) >= 1 and "contention" in fired_p
        and "inefficient" in fired_p,
        f"{len(led_p.switches)} switch(es), fired={fired_p}")
    fig.check(
        "every decision carries full evidence: threshold evaluations "
        "and a non-empty candidate set",
        all(r.checks and r.candidates for r in
            led_p.records + led_q.records)
        and all(len(r.candidates) >= 2 for r in led_p.records
                if r.kind == "observe"),
        f"{len(led_p.records) + len(led_q.records)} decisions audited")
    climb = led_q.records[0].climb if led_q.records else []
    fig.check(
        "probe episode: the initial decision recorded a hill-climb "
        "trajectory ending at the chosen software-prefetch distance",
        led_q.records and led_q.records[0].kind == "initial"
        and len(climb) >= 1
        and climb[-1][1] == led_q.records[0].chosen.sw_distance,
        f"{len(climb)} accepted move(s) -> d={climb[-1][1] if climb else '-'}")
    fig.check(
        "oracle-normalized scores are well-formed (0 < score <= 1) and "
        "every chosen window costs at least the oracle's",
        0.0 < rep_p.oracle_score <= 1.0 and 0.0 < rep_q.oracle_score <= 1.0
        and all(d.regret_ns_per_byte >= 0.0
                for d in rep_p.decisions + rep_q.decisions),
        f"pressure={rep_p.oracle_score:.4f} probe={rep_q.oracle_score:.4f}")
    fig.check(
        "the replay's content-addressed simulate() cache engaged "
        "(candidate windows recur across decisions)",
        rep_p.cache_stats.get("hits", 0) > 0
        and rep_p.cache_stats.get("hits", 0)
        > rep_p.cache_stats.get("misses", 0),
        f"pressure replay: {rep_p.cache_stats}")

    # Lay the decisions down on the ambient tracer (no-op unless the
    # CLI installed one via --trace).
    led_p.emit_events()
    led_q.emit_events()

    fig.notes.append("pressure ledger:\n" + led_p.render())
    fig.notes.append("pressure replay:\n" + rep_p.render())
    fig.notes.append("probe ledger:\n" + led_q.render())
    return fig


ALL_AUDIT_SCENARIOS = {
    "audit": audit_scenario,
}
