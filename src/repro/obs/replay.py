"""Counterfactual oracle replay (``repro.obs.replay``).

Prefetcher-manager work is scored against a *per-window oracle*: for
every decision window, re-run the window under every candidate policy
and ask how much the manager's choice lost against the best candidate
(Puppeteer's random-forest manager and the POWER7 runtime-guided
reconfiguration study both evaluate this way). The reproduction can
afford a literal oracle because the simulator is deterministic and the
content-addressed :func:`repro.simulate` cache (PR 4) memoizes repeated
(trace, hardware) windows.

:func:`replay_decisions` takes a :class:`~repro.obs.audit.
DecisionLedger`, re-simulates each recorded decision's window under
every candidate policy, and produces a :class:`RegretReport`:
per-decision regret (chosen vs best-in-window ns/byte) plus an
episode-level **oracle-normalized score** — total oracle window time
over total chosen window time, 1.0 meaning every decision matched the
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DecisionRegret:
    """One decision scored against its in-window oracle."""

    #: Ledger index / kind / sample of the decision.
    index: int
    kind: str
    sample: int
    #: Whether the decision changed the policy.
    switched: bool
    #: ns/byte of the window under every candidate, keyed by
    #: ``Policy.describe()`` (insertion order = candidate order).
    candidate_ns_per_byte: dict
    #: The policy the coordinator chose / the oracle's pick.
    chosen: str = ""
    best: str = ""
    chosen_ns_per_byte: float = 0.0
    best_ns_per_byte: float = 0.0

    @property
    def regret_ns_per_byte(self) -> float:
        """How much slower the choice was than the oracle (>= 0)."""
        return self.chosen_ns_per_byte - self.best_ns_per_byte

    @property
    def regret_pct(self) -> float:
        """Regret as a fraction of the oracle window time."""
        if self.best_ns_per_byte <= 0:
            return 0.0
        return self.regret_ns_per_byte / self.best_ns_per_byte

    @property
    def optimal(self) -> bool:
        """Whether the chosen policy tied the oracle for this window."""
        return self.chosen_ns_per_byte <= self.best_ns_per_byte

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "sample": self.sample,
            "switched": self.switched,
            "chosen": self.chosen,
            "best": self.best,
            "chosen_ns_per_byte": self.chosen_ns_per_byte,
            "best_ns_per_byte": self.best_ns_per_byte,
            "regret_ns_per_byte": self.regret_ns_per_byte,
            "regret_pct": self.regret_pct,
            "optimal": self.optimal,
            "candidates": dict(self.candidate_ns_per_byte),
        }


@dataclass
class RegretReport:
    """Episode-level counterfactual audit."""

    decisions: list[DecisionRegret] = field(default_factory=list)
    #: Stripes per replayed window.
    window_stripes: int = 0
    #: Content-cache hit/miss counts of the replay pass.
    cache_stats: dict = field(default_factory=dict)

    @property
    def oracle_score(self) -> float:
        """Oracle-normalized episode score in (0, 1].

        Total oracle window time over total chosen window time: 1.0
        means every decision matched the per-window oracle; 0.5 means
        the chosen policies took twice the oracle's time.
        """
        chosen = sum(d.chosen_ns_per_byte for d in self.decisions)
        best = sum(d.best_ns_per_byte for d in self.decisions)
        if chosen <= 0:
            return 1.0
        return best / chosen

    @property
    def total_regret_ns_per_byte(self) -> float:
        return sum(d.regret_ns_per_byte for d in self.decisions)

    @property
    def optimal_fraction(self) -> float:
        """Fraction of decisions that tied the oracle."""
        if not self.decisions:
            return 1.0
        return sum(d.optimal for d in self.decisions) / len(self.decisions)

    def render(self) -> str:
        """Per-decision regret table + episode score."""
        lines = [
            f"counterfactual replay: {len(self.decisions)} decisions over "
            f"{self.window_stripes}-stripe windows",
            "  idx  kind     sw  chosen ns/B  oracle ns/B  regret   policy "
            "(chosen -> oracle when different)",
        ]
        for d in self.decisions:
            arrow = (d.chosen if d.chosen == d.best
                     else f"{d.chosen} -> {d.best}")
            lines.append(
                f"  {d.index:>3}  {d.kind:<7} {'*' if d.switched else ' '}  "
                f"{d.chosen_ns_per_byte:11.4f}  {d.best_ns_per_byte:11.4f}  "
                f"{d.regret_pct:+6.1%}  {arrow}")
        lines.append(
            f"  oracle-normalized score: {self.oracle_score:.4f} "
            f"(optimal in {self.optimal_fraction:.0%} of windows, "
            f"total regret {self.total_regret_ns_per_byte:.4f} ns/B)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "window_stripes": self.window_stripes,
            "oracle_score": self.oracle_score,
            "optimal_fraction": self.optimal_fraction,
            "total_regret_ns_per_byte": self.total_regret_ns_per_byte,
            "decisions": [d.to_dict() for d in self.decisions],
            "cache_stats": dict(self.cache_stats),
        }


def _window_cost(policy, wl, hw) -> float:
    """Simulated ns/byte of one decision window under ``policy``.

    Goes through :func:`repro.simulate` so the replay's memo
    memoizes repeated (trace, hardware) windows — the same candidate
    policy recurs across decisions, so a replay is mostly cache hits
    after the first window.
    """
    from repro.simulator import simulate
    from repro.trace import isal_trace

    traces = [isal_trace(wl, hw.cpu, policy.to_variant(), thread=t)
              for t in range(wl.nthreads)]
    res = simulate(traces, hw)
    return res.makespan_ns / max(1, res.data_bytes)


def replay_decisions(ledger, *,
                     window_stripes: int | None = None) -> RegretReport:
    """Score every ledger decision against its in-window oracle.

    Parameters
    ----------
    ledger:
        A :class:`~repro.obs.audit.DecisionLedger` populated from a
        finished coordinator (it carries the episode's workload and
        hardware).
    window_stripes:
        Stripes per counterfactual window. Defaults to the ledger's
        recorded adaptation chunk size, else 2.

    Window simulations are memoized in a fresh
    :class:`~repro.parallel.cache.SimCache`, so ``cache_stats`` count
    this replay's windows only. The replay runs with tracing disabled
    (the simulate memo requires it, and thousands of window spans
    would drown the timeline); emit ledger events separately via
    :meth:`~repro.obs.audit.DecisionLedger.emit_events`.
    """
    from repro.obs.tracer import NULL_TRACER, use_tracer
    from repro.parallel.cache import SimCache, sim_cache

    if ledger.wl is None or ledger.hw is None:
        raise ValueError("ledger has no workload/hardware "
                         "(ingest a coordinator first)")
    stripes = (window_stripes if window_stripes is not None
               else (ledger.window_stripes or 2))
    wl = ledger.wl.with_(
        data_bytes_per_thread=stripes * ledger.wl.stripe_data_bytes)
    hw = ledger.hw
    store = SimCache()
    report = RegretReport(window_stripes=stripes)
    with use_tracer(NULL_TRACER), sim_cache(store):
        for index, rec in enumerate(ledger.records):
            costs: dict = {}
            by_policy = {}
            for pol in rec.candidates:
                desc = pol.describe()
                if desc not in costs:
                    costs[desc] = _window_cost(pol, wl, hw)
                    by_policy[desc] = pol
            chosen_desc = rec.chosen.describe()
            if chosen_desc not in costs:
                costs[chosen_desc] = _window_cost(rec.chosen, wl, hw)
            best_desc = min(costs, key=lambda d: (costs[d], d))
            report.decisions.append(DecisionRegret(
                index=index, kind=rec.kind, sample=rec.sample,
                switched=rec.switched, candidate_ns_per_byte=costs,
                chosen=chosen_desc, best=best_desc,
                chosen_ns_per_byte=costs[chosen_desc],
                best_ns_per_byte=costs[best_desc]))
    report.cache_stats = {"hits": store.hits, "misses": store.misses}
    return report
