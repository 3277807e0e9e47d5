"""Campaign outcome: MTTR, availability and durability statistics.

Everything in a :class:`CampaignReport` is derived from simulated-clock
quantities and seeded randomness, so :meth:`CampaignReport.render` is
byte-identical across runs of the same campaign + seed; the chaos and
overload scenarios embed it in their notes, so ``scripts/check_rerun.py``
pins that property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.audit import AuditReport


@dataclass
class CampaignReport:
    """Everything a finished campaign measured."""

    name: str
    seed: int
    duration_ns: float
    #: ``ChaosAction.describe()`` lines, in firing order.
    action_log: list[str] = field(default_factory=list)
    #: Injected-fault counts by kind (from the injector's event log).
    faults: dict = field(default_factory=dict)
    #: Service counters snapshot.
    counters: dict = field(default_factory=dict)
    #: Health summary (:meth:`~repro.service.health.HealthMonitor.summary`).
    health: dict = field(default_factory=dict)
    #: Per-operation latency summaries.
    latency: dict = field(default_factory=dict)
    audit: AuditReport = field(default_factory=AuditReport)
    #: Simulated instant the system was fully healed again (no loss
    #: marks, empty repair backlog, breakers closed); None if never.
    settled_at_ns: float | None = None
    notes: list[str] = field(default_factory=list)

    # -- derived statistics ------------------------------------------------

    @property
    def requests(self) -> int:
        return self.counters.get("requests", 0)

    @property
    def completed(self) -> int:
        return self.counters.get("completed", 0)

    @property
    def availability(self) -> float:
        """Completed fraction of all requests that reached the service."""
        total = self.requests
        return self.completed / total if total else 1.0

    @property
    def mean_mttr_ns(self) -> float:
        """Mean breaker OPEN -> CLOSED repair time (0 when no incident)."""
        return self.health.get("mean_mttr_ns", 0.0)

    @property
    def durability_clean(self) -> bool:
        return self.audit.clean

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "name": self.name,
            "seed": self.seed,
            "duration_ns": self.duration_ns,
            "actions": list(self.action_log),
            "faults": dict(sorted(self.faults.items())),
            "counters": dict(sorted(self.counters.items())),
            "health": self.health,
            "latency": self.latency,
            "availability": self.availability,
            "mean_mttr_ns": self.mean_mttr_ns,
            "settled_at_ns": self.settled_at_ns,
            "audit": {
                "acknowledged": self.audit.acknowledged,
                "intact": self.audit.intact,
                "lost": list(self.audit.lost),
                "corrupted": list(self.audit.corrupted),
                "read_checks": self.audit.read_checks,
                "read_mismatches": self.audit.read_mismatches,
                "clean": self.audit.clean,
            },
            "notes": list(self.notes),
        }

    def render(self) -> str:
        """The campaign report block (deterministic for a given seed)."""
        lines = [
            f"== chaos campaign: {self.name} (seed {self.seed}) ==",
            f"  simulated duration  {self.duration_ns / 1e6:.2f} ms",
            "  -- schedule --",
        ]
        lines += [f"    {entry}" for entry in self.action_log]
        lines.append("  -- faults injected --")
        for kind in sorted(self.faults):
            lines.append(f"    {kind:<15} {self.faults[kind]}")
        lines.append("  -- service --")
        for name in sorted(self.counters):
            lines.append(f"    {name:<28} {self.counters[name]}")
        for op in sorted(self.latency):
            s = self.latency[op]
            lines.append(
                f"    {op + ' latency':<28} n={s['count']} "
                f"p50={s['p50_ns'] / 1e3:.1f}us p99={s['p99_ns'] / 1e3:.1f}us")
        lines.append(f"    {'availability':<28} {self.availability:.4f}")
        lines.append("  -- health --")
        lines.append(f"    transitions={self.health.get('transitions', 0)} "
                     f"incidents_resolved="
                     f"{self.health.get('incidents_resolved', 0)} "
                     f"mean_mttr={self.mean_mttr_ns / 1e6:.2f}ms")
        for dev in sorted(self.health.get("devices", {})):
            d = self.health["devices"][dev]
            lines.append(f"    device {dev}: state={d['state']} "
                         f"errors={d['errors']}")
        settled = (f"{self.settled_at_ns / 1e6:.2f} ms"
                   if self.settled_at_ns is not None else "NEVER")
        lines.append(f"    fully healed at {settled}")
        lines.append("  -- durability --")
        lines.append(f"    {self.audit.summary()}")
        for key in self.audit.lost:
            lines.append(f"    lost: {key}")
        for key in self.audit.corrupted:
            lines.append(f"    corrupted: {key}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)
