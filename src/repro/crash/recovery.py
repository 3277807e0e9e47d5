"""Service-level power-cut recovery.

:class:`ServiceRecovery` is what a ``power_cut`` chaos action invokes:
it cuts power on the service's store (volatile metadata and every
unfenced line are gone), replays the WAL, charges the simulated clock
for the recovery work, re-queues the requests that were submitted but
never acknowledged (a client that got no ack retries), reconciles the
rebuilt store against the :class:`~repro.chaos.audit.DurabilityAuditor`
ledger of acknowledged writes, and emits a ``service.recover`` span
plus recovery metrics — so an outage is a *measured, traced* event in
the campaign timeline rather than silent state surgery.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.obs import get_tracer
from repro.pmstore.pmem import CrashPolicy

#: Fixed restart overhead (firmware + process boot) of one power cut.
RESTART_NS = 5e5


@dataclass
class ServiceRecoveryReport:
    """One power-cut + recovery episode, as the campaign sees it."""

    at_ns: float = 0.0
    recovery_ns: float = 0.0
    damaged_lines: int = 0
    txns_replayed: int = 0
    rolled_forward: int = 0
    wal_bytes_scanned: int = 0
    lines_redone: int = 0
    objects_recovered: int = 0
    requests_requeued: int = 0
    #: Auditor reconciliation of the rebuilt store: every key the
    #: auditor saw acknowledged, read back and classified.
    acked_checked: int = 0
    acked_intact: int = 0
    acked_lost: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every acknowledged write survived the cut."""
        return not self.acked_lost

    def summary(self) -> str:
        """One deterministic report line."""
        verdict = "CLEAN" if self.clean else "DATA LOSS"
        return (f"power cut @ {self.at_ns / 1e6:.2f}ms: "
                f"recovered in {self.recovery_ns / 1e6:.3f}ms, "
                f"txns={self.txns_replayed} fwd={self.rolled_forward} "
                f"objects={self.objects_recovered} "
                f"requeued={self.requests_requeued} "
                f"acked {self.acked_intact}/{self.acked_checked} intact "
                f"[{verdict}]")


class ServiceRecovery:
    """Cuts power on a running service and brings it back, accountably.

    Parameters
    ----------
    service:
        The :class:`~repro.service.service.ErasureCodingService` to cut.
    auditor:
        Optional :class:`~repro.chaos.audit.DurabilityAuditor`; when
        given, recovery reconciles every acknowledged key against the
        rebuilt store (hooks bypassed: this audits the *media*).

    Each outage costs ``RESTART_NS`` on top of the WAL-scan and
    line-redo transfer time.
    """

    def __init__(self, service, *, auditor=None):
        self.service = service
        self.auditor = auditor
        self.reports: list[ServiceRecoveryReport] = []

    def _recovery_cost_ns(self, report) -> float:
        """Simulated outage length: restart + scan + redo transfers."""
        svc = self.service
        redo_bytes = report.lines_redone * svc.store.domain.line_bytes
        return (RESTART_NS
                + svc._transfer_ns(report.wal_bytes_scanned + redo_bytes))

    def power_cut(self, policy: CrashPolicy | None = None
                  ) -> ServiceRecoveryReport:
        """Cut power now; recover; re-queue; reconcile. Returns the
        episode report (also appended to ``reports``)."""
        svc = self.service
        start = svc.clock_ns
        episode = ServiceRecoveryReport(at_ns=start)

        # Submitted-but-undrained requests lost their queue entries with
        # the cut; their clients never got an ack and will retry.
        unacked = list(svc._pending)
        svc._pending = []

        episode.damaged_lines = svc.store.crash(policy)
        rec = svc.store.recover()
        episode.txns_replayed = rec.txns_seen
        episode.rolled_forward = rec.rolled_forward
        episode.wal_bytes_scanned = rec.wal_bytes_scanned
        episode.lines_redone = rec.lines_redone
        episode.objects_recovered = rec.objects_recovered
        episode.recovery_ns = self._recovery_cost_ns(rec)
        svc.clock_ns = start + episode.recovery_ns

        # Client retries arrive once the service is back up.
        for req in unacked:
            svc.submit(replace(req, arrival_ns=max(req.arrival_ns,
                                                   svc.clock_ns)))
        episode.requests_requeued = len(unacked)

        if self.auditor is not None:
            audit = None
            hooks, svc.store.fault_hooks = svc.store.fault_hooks, []
            try:
                audit = self.auditor.verify(svc.store)
            finally:
                svc.store.fault_hooks = hooks
            episode.acked_checked = audit.acknowledged
            episode.acked_intact = audit.intact
            episode.acked_lost = sorted(audit.lost + audit.corrupted)

        svc.metrics.inc("power_cuts")
        svc.metrics.inc("wal_txns_replayed", episode.txns_replayed)
        svc.metrics.inc("wal_rolled_forward", episode.rolled_forward)
        svc.metrics.inc("recovery_requeued", episode.requests_requeued)
        svc.metrics.observe_latency("recover", episode.recovery_ns)

        tracer = get_tracer()
        if tracer.enabled:
            span = tracer.begin(
                "service.recover", svc._ts(start), detached=True,
                track="service", damaged_lines=episode.damaged_lines,
                txns_replayed=episode.txns_replayed,
                rolled_forward=episode.rolled_forward)
            span.event("service.wal_scanned", svc._ts(start + 0.5 *
                                                      episode.recovery_ns),
                       wal_bytes=episode.wal_bytes_scanned)
            span.end(svc._ts(svc.clock_ns),
                     recovery_ns=episode.recovery_ns,
                     requeued=episode.requests_requeued,
                     acked_intact=episode.acked_intact,
                     acked_checked=episode.acked_checked)

        self.reports.append(episode)
        return episode
