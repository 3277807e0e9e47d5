"""Self-healing: background scrub, priority repair, device recovery.

The service's event loop (:meth:`~repro.service.service.
ErasureCodingService.drain`) hands its *idle gaps* — simulated
intervals where no request is queued or in flight — to an attached
:class:`SelfHealer`, which spends them on maintenance in priority
order:

1. **Repair queue** — stripes carrying loss marks, most-damaged first
   (a stripe one block short of the parity budget is one fault away
   from data loss, so it jumps the line).
2. **Background scrub** — a :class:`ScrubScheduler` walks the store in
   paced slices, converting silent corruption to erasures and feeding
   the repair queue and the :class:`~repro.service.health.
   HealthMonitor`.
3. **Breaker recovery** — devices whose circuit breaker cooled down are
   probed (restore + checksum scan); clean probes close the breaker.

Every unit of maintenance work is charged simulated time through the
service's own cost model and only starts if it both fits the idle gap
and can reserve its thread budget from the Eq. (1)
:class:`~repro.service.admission.AdmissionController` — scrubbing can
never thrash the read buffer that foreground traffic depends on.
"""

from __future__ import annotations

from repro.obs import get_tracer, use_tracer
from repro.pmstore.scrubber import Scrubber
from repro.service.health import HealthMonitor, HealthState

#: Simulated interval between scrub slices.
SCRUB_PERIOD_NS = 500_000.0
#: Stripes scanned per scrub slice.
SCRUB_STRIPES_PER_SLICE = 4
#: Eq. (1) thread budget one maintenance task reserves.
MAINTENANCE_THREADS = 1


class RepairQueue:
    """Pending stripe repairs, popped most-damaged-first.

    Priorities are computed against the store's *current* loss marks at
    pop time (damage evolves while work waits), with stripe id as the
    deterministic tie-break. Stripes that fail repair (losses beyond
    the parity budget) are parked in :attr:`unrepairable` instead of
    being retried forever.
    """

    def __init__(self):
        self._pending: set[int] = set()
        self.unrepairable: set[int] = set()
        #: Lifetime counters (observability).
        self.tasks_done = 0
        self.blocks_rebuilt = 0

    def __len__(self) -> int:
        return len(self._pending)

    def enqueue(self, sid: int) -> None:
        """Add one stripe to the backlog (idempotent)."""
        if sid not in self.unrepairable:
            self._pending.add(sid)

    def enqueue_backlog(self, store) -> int:
        """Queue every stripe currently carrying loss marks."""
        added = 0
        for sid in store.stripes_with_losses():
            if sid not in self._pending and sid not in self.unrepairable:
                self._pending.add(sid)
                added += 1
        return added

    def pop_most_urgent(self, store) -> int | None:
        """Remove and return the most-damaged pending stripe."""
        while self._pending:
            sid = max(self._pending,
                      key=lambda s: (len(store.lost_blocks(s)), -s))
            self._pending.discard(sid)
            if store.lost_blocks(sid):
                return sid
            # Healed in the meantime (e.g. a write-path verify): skip.
        return None


class ScrubScheduler:
    """Paces background scrubbing over the simulated clock.

    Every ``SCRUB_PERIOD_NS`` the scheduler releases one slice of
    ``SCRUB_STRIPES_PER_SLICE`` stripes, walking the store round-robin
    — a full pass over ``N`` stripes therefore takes
    ``ceil(N / SCRUB_STRIPES_PER_SLICE) * SCRUB_PERIOD_NS``,
    independent of load spikes (slices skipped under pressure are made
    up later).
    """

    def __init__(self):
        self._cursor = 0
        self._next_due_ns = 0.0
        self.slices_run = 0

    def due(self, now_ns: float) -> bool:
        """Whether a slice may start at ``now_ns``."""
        return now_ns >= self._next_due_ns

    def next_slice(self, num_stripes: int, now_ns: float) -> list[int]:
        """Claim the next slice of stripe ids (empty store -> empty)."""
        if num_stripes == 0:
            self._next_due_ns = now_ns + SCRUB_PERIOD_NS
            return []
        sids = [(self._cursor + i) % num_stripes
                for i in range(min(SCRUB_STRIPES_PER_SLICE, num_stripes))]
        self._cursor = (self._cursor + len(sids)) % num_stripes
        self._next_due_ns = now_ns + SCRUB_PERIOD_NS
        self.slices_run += 1
        return sids


class SelfHealer:
    """Drives repair, scrubbing and breaker recovery in idle gaps.

    Attach to a service with :meth:`~repro.service.service.
    ErasureCodingService.attach_healer`; the service then calls
    :meth:`run_window` from its event loop whenever simulated time
    would otherwise pass idle. Its :class:`HealthMonitor` is sized to
    the stripe geometry of the first service it is attached to.
    """

    def __init__(self):
        self.monitor: HealthMonitor | None = None
        self.scrub = ScrubScheduler()
        self.repairs = RepairQueue()
        self.service = None
        self._scrubber: Scrubber | None = None
        #: Per-erasure-count decode makespans (geometry is fixed, so a
        #: repair's simulated cost is a pure function of its erasures).
        self._repair_cost_ns: dict[int, float] = {}

    # -- wiring ------------------------------------------------------------

    def attach(self, service) -> None:
        """Bind to a service (called by ``attach_healer``)."""
        self.service = service
        if self.monitor is None:
            self.monitor = HealthMonitor(
                service.k + service.store.parity_blocks)
        self._scrubber = Scrubber(service.store, metrics=service.metrics)

    # -- symptom intake (called from the service's request path) -----------

    def on_transient(self, now_ns: float) -> None:
        """A retried operation-level fault happened."""
        self.monitor.record_transient(now_ns)

    def on_degraded_read(self, key: str, now_ns: float) -> None:
        """A GET was served through parity; attribute the erasures."""
        store = self.service.store
        meta = store.meta_of(key)
        if meta.stripe == -1:      # shard manifest: shards report alone
            return
        for device in sorted(store.lost_blocks(meta.stripe)):
            self._record_device_error(device, now_ns, "degraded_read")
        self.repairs.enqueue(meta.stripe)

    def on_corruption(self, sid: int, device: int, now_ns: float) -> None:
        """Scrub located silent corruption at (stripe, device)."""
        self._record_device_error(device, now_ns, "corruption")
        self.repairs.enqueue(sid)

    def _record_device_error(self, device: int, now_ns: float,
                             kind: str) -> None:
        before = self.monitor.state(device)
        after = self.monitor.record_error(device, now_ns, kind)
        if before is HealthState.CLOSED and after is HealthState.OPEN:
            self._on_trip(device, now_ns)

    def _on_trip(self, device: int, now_ns: float) -> None:
        """Breaker tripped: isolate the device (when parity allows)."""
        svc = self.service
        svc.metrics.inc("health_trips")
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("service.breaker_open", svc._ts(now_ns),
                         device=device)
        store = svc.store
        # Isolating a device converts every stripe's block at that
        # position into an erasure. Refuse when that would push any
        # stripe past the parity budget — a tripped breaker must never
        # *cause* data loss.
        for sid in range(store.num_stripes):
            lost = store.lost_blocks(sid)
            if device not in lost and len(lost) + 1 > store.m:
                svc.metrics.inc("health_isolation_refused")
                self.repairs.enqueue_backlog(store)
                return
        store.mark_device_lost(device)
        svc.metrics.inc("health_isolations")
        self.repairs.enqueue_backlog(store)

    # -- the maintenance loop ----------------------------------------------

    def backlog(self) -> int:
        """Pending repair tasks (unrepairable stripes not included)."""
        return len(self.repairs)

    def run_window(self, service, start_ns: float, end_ns: float) -> float:
        """Spend the idle gap ``[start_ns, end_ns)`` on maintenance.

        Advances the service clock past each completed unit of work and
        returns the instant maintenance stopped (never past ``end_ns``).
        Work only starts when its simulated cost fits the remaining gap
        *and* the admission controller grants the thread budget.
        """
        now = max(start_ns, service.clock_ns)
        while True:
            self._recover_devices(service, now)
            did = self._repair_one(service, now, end_ns)
            if did is None and self.scrub.due(now):
                did = self._scrub_slice(service, now, end_ns)
            if did is None:
                break
            now = did
            service.clock_ns = max(service.clock_ns, now)
        return now

    def _admit(self, service) -> bool:
        return service.admission.try_admit(MAINTENANCE_THREADS)

    def _decode_cost_ns(self, service, erasures: int) -> float:
        """Simulated one-stripe decode makespan (memoized, untraced —
        a cost *estimate* must not emit simulator spans)."""
        if erasures not in self._repair_cost_ns:
            with use_tracer(None):
                self._repair_cost_ns[erasures] = service._coding_makespan(
                    1, op="decode", erasures=erasures)
        return self._repair_cost_ns[erasures]

    def _repair_one(self, service, now: float,
                    end_ns: float) -> float | None:
        """Repair the most urgent stripe if it fits; returns new now."""
        store = service.store
        sid = self.repairs.pop_most_urgent(store)
        if sid is None:
            return None
        lost = store.lost_blocks(sid)
        erasures = min(len(lost), store.m, service.k)
        cost = (self._decode_cost_ns(service, erasures)
                + service._transfer_ns(len(lost) * service.block_bytes))
        if now + cost > end_ns or not self._admit(service):
            self.repairs.enqueue(sid)           # try again next gap
            return None
        tracer = get_tracer()
        span = (tracer.begin("service.repair", service._ts(now),
                             track="healer", stripe=sid, lost=len(lost))
                if tracer.enabled else None)
        try:
            rebuilt = store.repair(sid)
            self.repairs.tasks_done += 1
            self.repairs.blocks_rebuilt += rebuilt
            service.metrics.inc("repair_tasks_done")
            service.metrics.inc("repair_blocks_rebuilt", rebuilt)
        except ValueError:
            self.repairs.unrepairable.add(sid)
            service.metrics.inc("repair_unrepairable_stripes")
        finally:
            service.admission.release(MAINTENANCE_THREADS)
        now += cost
        if span is not None:
            span.end(service._ts(now))
        return now

    def _scrub_slice(self, service, now: float,
                     end_ns: float) -> float | None:
        """Scan one scheduled slice of stripes if it fits the gap."""
        store = service.store
        nblocks = service.k + store.parity_blocks
        slice_size = min(SCRUB_STRIPES_PER_SLICE, store.num_stripes)
        cost = service._transfer_ns(
            max(1, slice_size) * nblocks * service.block_bytes)
        if now + cost > end_ns or not self._admit(service):
            return None
        sids = self.scrub.next_slice(store.num_stripes, now)
        tracer = get_tracer()
        span = (tracer.begin("service.scrub", service._ts(now),
                             track="healer", stripes=len(sids))
                if tracer.enabled else None)
        corrupt_found = 0
        for sid in sids:
            for device in self._scrubber.locate(sid):
                store.mark_lost(sid, device)
                corrupt_found += 1
                self.on_corruption(sid, device, now)
            if store.lost_blocks(sid):
                self.repairs.enqueue(sid)
        service.metrics.inc("scrub_stripes_scanned", len(sids))
        service.metrics.inc("scrub_corrupt_blocks", corrupt_found)
        service.admission.release(MAINTENANCE_THREADS)
        now += cost
        if span is not None:
            span.end(service._ts(now), corrupt=corrupt_found)
        return now

    def _recover_devices(self, service, now: float) -> None:
        """Half-open cooled breakers and probe them for recovery."""
        for device in self.monitor.tick(now):
            service.metrics.inc("health_probes")
        for device in list(self.monitor.open_devices()):
            if self.monitor.state(device) is not HealthState.HALF_OPEN:
                continue
            store = service.store
            if any(device in store.lost_blocks(sid)
                   for sid in store.stripes_with_losses()):
                # Still erased somewhere: let the repair queue finish
                # first; the breaker stays half-open until it has.
                self.repairs.enqueue_backlog(store)
                continue
            if device in store.lost_devices:
                # Its blocks were already rebuilt stripe-by-stripe by
                # the repair queue; only the device flag remains.
                store.unmark_device(device)
            clean = all(device not in self._scrubber.locate(sid)
                        for sid in range(store.num_stripes))
            self.monitor.probe_result(device, now, clean)
            if clean:
                service.metrics.inc("health_recoveries")
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.event("service.breaker_close",
                                 service._ts(now), device=device)
