"""The campaign engine: traffic + faults + self-healing, interleaved.

Runs one :class:`~repro.chaos.campaign.Campaign` against a freshly
built :class:`~repro.service.service.ErasureCodingService` with a
:class:`~repro.service.healing.SelfHealer` attached:

1. Base traffic (seeded puts early, read-backs across the window) is
   merged with any ``traffic_burst`` actions into one arrival stream.
2. The stream is drained *window by window* between scheduled actions,
   so every fault lands at its exact simulated instant relative to the
   requests around it; the service spends request gaps on self-healing.
3. After the last arrival the engine keeps granting maintenance windows
   until the system *settles* — no loss marks, empty repair backlog,
   every breaker closed — or a bounded patience runs out.
4. A final full scrub plus the :class:`~repro.chaos.audit.
   DurabilityAuditor` verdict close the loop: campaign reports carry
   MTTR, availability and durability, and are byte-identical per seed.

The engine is trace-instrumented: each campaign is a ``chaos.campaign``
span, every applied action a ``chaos.<kind>`` event on the service
timeline (visible alongside request and healer spans under
``python -m repro.bench chaos --trace out.json``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.chaos.audit import DurabilityAuditor
from repro.chaos.campaign import Campaign, ChaosAction
from repro.chaos.report import CampaignReport
from repro.crash.recovery import ServiceRecovery
from repro.obs import get_tracer
from repro.pmstore.faults import FaultEvent, FaultInjector
from repro.pmstore.pmem import keep_flushed, seeded_line_policy
from repro.pmstore.scrubber import Scrubber
from repro.service import (
    ErasureCodingService,
    SelfHealer,
    ServiceConfig,
    get_wave,
    put_wave,
)
from repro.service.retry import RetryPolicy

#: Simulated length of one settle-phase maintenance window.
SETTLE_WINDOW_NS = 2e6
#: Settle windows granted after the last arrival before giving up on
#: full healing.
SETTLE_PATIENCE = 400


class CampaignEngine:
    """Drives one campaign; :meth:`run` returns the report.

    Parameters
    ----------
    campaign:
        The schedule to execute.
    config:
        Service knobs (default: jittered retries, roomy queue).

    The service gets a stock :class:`SelfHealer`; after the last
    arrival the engine grants up to ``SETTLE_PATIENCE`` maintenance
    windows of ``SETTLE_WINDOW_NS`` each.
    """

    def __init__(self, campaign: Campaign, *,
                 config: ServiceConfig | None = None):
        self.campaign = campaign
        # verify_reads: a chaos run must never serve silent corruption
        # to a client — reads checksum-verify (and repair) their stripe
        # first, closing the window between a corruption action and the
        # next scheduled scrub slice.
        self.config = config or ServiceConfig(
            max_queue_depth=32, max_batch=8, verify_reads=True,
            retry=RetryPolicy(jitter=0.5, seed=campaign.seed))
        self.healer = SelfHealer()
        self.service: ErasureCodingService | None = None
        self.injector: FaultInjector | None = None
        self.auditor = DurabilityAuditor()
        #: Power-cut executor (``power_cut`` actions); built in :meth:`run`.
        self.recovery: ServiceRecovery | None = None

    # -- traffic -----------------------------------------------------------

    def _base_traffic(self) -> list:
        """Seeded puts early, read-backs spread across the window."""
        c = self.campaign
        puts = put_wave(c.base_clients, c.objects_per_client,
                        payload_bytes=c.payload_bytes,
                        mean_gap_ns=c.mean_gap_ns, seed=c.seed)
        gets = get_wave(c.base_clients, c.objects_per_client,
                        mean_gap_ns=c.duration_ns / 10,
                        start_ns=c.duration_ns * 0.15, seed=c.seed + 1)
        return sorted(puts + gets, key=lambda r: (r.arrival_ns, r.key))

    def _burst_traffic(self, action: ChaosAction, index: int) -> list:
        """Extra wave started by a ``traffic_burst``/``flash_crowd``
        action (a flash crowd is just a burst that carries deadlines)."""
        c = self.campaign
        if action.op == "put":
            reqs = put_wave(action.nclients, action.objects_per_client,
                            payload_bytes=action.payload_bytes,
                            mean_gap_ns=action.mean_gap_ns,
                            start_ns=action.at_ns,
                            seed=c.seed + 100 + index,
                            deadline_slack_ns=action.deadline_slack_ns)
            # Burst keys live in their own namespace so durability
            # accounting never races a base-traffic overwrite.
            return [replace(r, key=f"burst{index}/{r.key}") for r in reqs]
        return get_wave(action.nclients, action.objects_per_client,
                        mean_gap_ns=action.mean_gap_ns,
                        start_ns=action.at_ns, seed=c.seed + 100 + index,
                        deadline_slack_ns=action.deadline_slack_ns)

    # -- fault application -------------------------------------------------

    def _apply(self, action: ChaosAction, pending: list) -> None:
        svc, inj = self.service, self.injector
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(f"chaos.{action.kind}", svc._ts(svc.clock_ns),
                         note=action.note)
        random_target = action.kind in ("bit_flip", "scribble", "block_loss")
        if random_target and svc.store.num_stripes == 0:
            return  # nothing written yet: a fault needs a target
        if action.kind == "bit_flip":
            for _ in range(action.count):
                inj.bit_flip()
        elif action.kind == "scribble":
            for _ in range(action.count):
                inj.scribble(length=action.length)
        elif action.kind == "block_loss":
            for _ in range(action.count):
                inj.block_loss()
        elif action.kind == "device_loss":
            svc.store.mark_device_lost(action.device)
            inj.events.append(FaultEvent(
                "device_loss", -1, action.device,
                f"all {svc.store.num_stripes} stripes"))
        elif action.kind == "transient_storm":
            svc.store.add_fault_hook(inj.storm_hook(
                lambda: svc.clock_ns,
                start_ns=action.at_ns,
                end_ns=action.at_ns + action.duration_ns,
                rate=action.rate))
        elif action.kind == "retry_storm":
            # Harsher than transient_storm: the same key keeps failing
            # (count times), so unbudgeted retry-with-backoff stacks —
            # the metastable-amplification scenario retry budgets cap.
            svc.store.add_fault_hook(inj.storm_hook(
                lambda: svc.clock_ns,
                start_ns=action.at_ns,
                end_ns=action.at_ns + action.duration_ns,
                rate=action.rate,
                max_failures_per_key=action.count))
            inj.events.append(FaultEvent(
                "retry_storm", -1, -1,
                f"rate={action.rate:.2f} x{action.count}/key "
                f"for {action.duration_ns / 1e6:.2f}ms"))
        elif action.kind == "slow_device":
            svc.set_device_slow(action.device, action.penalty_ns,
                                until_ns=action.at_ns + action.duration_ns)
            inj.events.append(FaultEvent(
                "slow_device", -1, action.device,
                f"+{action.penalty_ns / 1e6:.2f}ms per read "
                f"for {action.duration_ns / 1e6:.2f}ms"))
        elif action.kind in ("traffic_burst", "flash_crowd"):
            index = len(self._bursts)
            self._bursts.append(action)
            burst = self._burst_traffic(action, index)
            pending.extend(burst)
            pending.sort(key=lambda r: (r.arrival_ns, r.key))
        elif action.kind == "power_cut":
            if action.policy == "keep":
                policy = keep_flushed
            elif action.policy == "tear":
                # Deterministic per (campaign seed, cut instant).
                policy = seeded_line_policy(np.random.default_rng(
                    [self.campaign.seed, 0x9C, int(action.at_ns)]))
            else:
                policy = None  # drop every unfenced line
            episode = self.recovery.power_cut(policy)
            inj.events.append(FaultEvent(
                "power_cut", -1, -1, episode.summary()))

    # -- the run loop ------------------------------------------------------

    def _drain_until(self, pending: list, until_ns: float) -> list:
        """Feed the service every arrival up to ``until_ns``; drain."""
        svc = self.service
        due = [r for r in pending if r.arrival_ns <= until_ns]
        del pending[:len(due)]
        if due:
            svc.submit_many(due)
            results = svc.drain()
            self.auditor.observe(results)
            return results
        return []

    def _settle(self) -> float | None:
        """Grant maintenance windows until fully healed; returns the
        simulated settle instant (None when patience ran out)."""
        svc, healer = self.service, self.healer

        def healed() -> bool:
            return (not svc.store.stripes_with_losses()
                    and healer.backlog() == 0
                    and not healer.monitor.open_devices())

        for _ in range(SETTLE_PATIENCE):
            if healed():
                return svc.clock_ns
            end = svc.clock_ns + SETTLE_WINDOW_NS
            svc.run_maintenance(end)
            svc.clock_ns = max(svc.clock_ns, end)
        return svc.clock_ns if healed() else None

    def run(self) -> CampaignReport:
        """Execute the campaign end-to-end and report."""
        c = self.campaign
        svc = ErasureCodingService(c.k, c.m, block_bytes=c.block_bytes,
                                   config=self.config)
        svc.attach_healer(self.healer)
        self.service = svc
        self.injector = FaultInjector(svc.store, seed=c.seed)
        self.recovery = ServiceRecovery(svc, auditor=self.auditor)
        self._bursts: list[ChaosAction] = []

        tracer = get_tracer()
        campaign_span = (tracer.begin("chaos.campaign", svc._ts(0.0),
                                      detached=True, track="chaos",
                                      campaign=c.name, seed=c.seed)
                         if tracer.enabled else None)

        pending = self._base_traffic()
        action_log: list[str] = []
        for action in c.schedule():
            self._drain_until(pending, action.at_ns)
            # Spend any remaining quiet time before the action on
            # maintenance, then place the clock at the fault instant.
            svc.run_maintenance(action.at_ns)
            svc.clock_ns = max(svc.clock_ns, action.at_ns)
            self._apply(action, pending)
            action_log.append(action.describe())
        self._drain_until(pending, float("inf"))
        svc.run_maintenance(c.duration_ns)
        svc.clock_ns = max(svc.clock_ns, c.duration_ns)

        settled_at = self._settle()

        # Final full scrub: anything silent the paced slices had not
        # reached yet is found, converted and repaired here (and lands
        # in the same scrub_* service counters).
        final_scrub = Scrubber(svc.store, metrics=svc.metrics).scrub()
        audit = self.auditor.verify(svc.store)

        if campaign_span is not None:
            campaign_span.end(svc._ts(svc.clock_ns),
                              durability_clean=audit.clean)

        faults: dict[str, int] = {}
        for ev in self.injector.events:
            faults[ev.kind] = faults.get(ev.kind, 0) + 1
        snap = svc.metrics.snapshot()
        report = CampaignReport(
            name=c.name, seed=c.seed, duration_ns=c.duration_ns,
            action_log=action_log, faults=faults,
            counters=snap["counters"], latency=snap["latency"],
            health=self.healer.monitor.summary(), audit=audit,
            settled_at_ns=settled_at)
        report.notes.append(
            f"final scrub: {final_scrub.stripes_scanned} stripes, "
            f"{len(final_scrub.corrupt_blocks)} residual corrupt, "
            f"{final_scrub.repaired_blocks} repaired, "
            f"{len(final_scrub.unrepairable_stripes)} unrepairable")
        return report
