"""The coordinator decision ledger (``repro.obs.audit``).

The paper's central claim is that the adaptive coordinator picks the
*right* prefetcher policy from counter evidence (§4.1.2). The tracer
can already show *when* a switch happened; this module records *why* —
per decision: the counter deltas the coordinator saw, every threshold
predicate it evaluated (value, limit, fired?), the candidate policy
set it weighed, the policy it chose, and the hill-climb trajectory of
any distance search that ran.

A :class:`DecisionLedger` holds the
:class:`~repro.core.coordinator.DecisionEvidence` trail a finished
:class:`~repro.core.coordinator.AdaptiveCoordinator` accumulated on its
``decision_log`` (:meth:`DecisionLedger.ingest` /
:func:`ledger_from_coordinator`). Records export as JSONL
(:meth:`DecisionLedger.to_jsonl`) and as ``decision.*`` events on the
shared :class:`~repro.obs.tracer.Tracer` timeline (:meth:`emit_events`),
and feed the counterfactual oracle replay in :mod:`repro.obs.replay`.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field


def _fired(evidence) -> list[str]:
    """Names of the predicates that fired in one decision."""
    return [c.name for c in evidence.checks if c.fired]


def _to_dict(index: int, evidence) -> dict:
    """Plain-JSON form of one decision (policies via ``describe()``)."""
    return {
        "index": index,
        "kind": evidence.kind,
        "sample": evidence.sample,
        "now_ns": evidence.now_ns,
        "delta": dict(evidence.delta),
        "checks": [c._asdict() for c in evidence.checks],
        "candidates": [p.describe() for p in evidence.candidates],
        "old": (evidence.old.describe() if evidence.old is not None
                else None),
        "chosen": evidence.chosen.describe(),
        "switched": evidence.switched,
        "climb": [list(step) for step in evidence.climb],
        "throughput_gbps": evidence.throughput_gbps,
    }


@dataclass
class DecisionLedger:
    """Append-only audit log of coordinator decisions.

    Use one ledger per adaptive episode: ingest a finished
    coordinator's ``decision_log``. A record's ledger index is its
    position in :attr:`records`.
    """

    #: :class:`~repro.core.coordinator.DecisionEvidence`, in decision
    #: order.
    records: list = field(default_factory=list)
    #: Workload/hardware of the audited episode (set by ingest; the
    #: replay's simulation inputs).
    wl: object | None = None
    hw: object | None = None
    #: Default counterfactual window (stripes) — the coordinator's
    #: adaptation chunk size when known.
    window_stripes: int | None = None

    def ingest(self, coordinator) -> "DecisionLedger":
        """Pull a finished coordinator's whole evidence trail."""
        self.wl = coordinator.wl
        self.hw = coordinator.hw
        if coordinator.window_stripes is not None:
            self.window_stripes = coordinator.window_stripes
        self.records.extend(coordinator.decision_log)
        return self

    # -- reading -----------------------------------------------------------

    @property
    def switches(self) -> list:
        """Decisions that changed the policy."""
        return [r for r in self.records if r.switched]

    def to_records(self) -> list[dict]:
        """Every decision as a plain dict (JSONL line order)."""
        return [_to_dict(i, r) for i, r in enumerate(self.records)]

    def to_jsonl(self) -> str:
        """The ledger as newline-delimited JSON."""
        return "\n".join(json.dumps(r, sort_keys=True)
                         for r in self.to_records()) + "\n"

    def write_jsonl(self, path) -> pathlib.Path:
        """Write the JSONL decision log; returns the path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl())
        return path

    # -- tracer export -----------------------------------------------------

    def emit_events(self, tracer=None) -> int:
        """Lay the ledger down as ``decision.*`` records on a tracer
        timeline; returns how many records were emitted.

        Every decision becomes a ``decision.evaluated`` instant at its
        recorded simulated timestamp (with the fired predicates and the
        candidate count), and every policy change additionally a
        ``decision.switch`` instant carrying the old/new policies.
        Timestamps are the evidence's own ``now_ns``, so post-hoc
        emission lands exactly where live emission would.
        """
        if tracer is None:
            from repro.obs.tracer import get_tracer
            tracer = get_tracer()
        if not tracer.enabled:
            return 0
        emitted = 0
        for index, rec in enumerate(self.records):
            tracer.event("decision.evaluated", rec.now_ns,
                         track="decision", index=index, kind=rec.kind,
                         sample=rec.sample,
                         fired=" ".join(_fired(rec)) or "none",
                         candidates=len(rec.candidates),
                         chosen=rec.chosen.describe(),
                         switched=rec.switched)
            emitted += 1
            if rec.switched and rec.old is not None:
                tracer.event("decision.switch", rec.now_ns,
                             track="decision", index=index,
                             sample=rec.sample, old=rec.old.describe(),
                             new=rec.chosen.describe())
                emitted += 1
        return emitted

    def render(self, *, max_rows: int | None = None) -> str:
        """Human-readable decision table (for demos and reports)."""
        lines = [f"decision ledger: {len(self.records)} decisions, "
                 f"{len(self.switches)} switches"]
        rows = self.records if max_rows is None else self.records[:max_rows]
        for index, rec in enumerate(rows):
            mark = "SWITCH" if rec.switched else "keep  "
            lines.append(
                f"  [{index:>2}] {rec.kind:<7} t={rec.now_ns / 1e3:10.1f}us "
                f"{mark} -> {rec.chosen.describe()}  "
                f"fired={','.join(_fired(rec)) or '-'}  "
                f"candidates={len(rec.candidates)}"
                + (f"  climb={len(rec.climb)} moves" if rec.climb else ""))
        if max_rows is not None and len(self.records) > max_rows:
            lines.append(f"  ... (+{len(self.records) - max_rows} more)")
        return "\n".join(lines)


def ledger_from_coordinator(coordinator) -> DecisionLedger:
    """Build a ledger from a finished coordinator's evidence trail."""
    return DecisionLedger().ingest(coordinator)
