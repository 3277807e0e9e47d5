"""The erasure-coded PM object-storage service.

Ties every service-layer piece together into one deterministic
discrete-event loop over the *simulated* clock:

* arrivals enter the bounded :class:`~repro.service.queue.RequestQueue`
  (or are **rejected** when the queue is full — which, by the dispatch
  invariant, only happens while the Eq. (1) cap is saturated);
* the dispatcher pulls **coalesced** same-geometry batches whenever the
  :class:`~repro.service.admission.AdmissionController` has thread
  budget, and charges each batch a single simulated encode/decode job
  on the configured :class:`~repro.libs.base.CodingLibrary`;
* :class:`~repro.pmstore.faults.TransientFault` raised from the store's
  fault hooks is retried with exponential backoff on the simulated
  clock; reads of blocks on a lost device degrade through parity
  reconstruction instead of failing;
* everything lands in a :class:`~repro.service.metrics.MetricsRegistry`
  (latency percentiles, queue depth, rejections, retries, coordinator
  policy switches) snapshotable from tests and the bench CLI.

The loop is single-threaded Python simulating many concurrent clients —
the same substitution the testbed makes for hardware (DESIGN.md §2).
"""

from __future__ import annotations

import heapq
import math
import zlib
from dataclasses import dataclass, field

from repro.core.dialga import DialgaConfig, DialgaEncoder
from repro.libs.base import CodingLibrary, GeometryMismatch
from repro.obs import get_tracer, use_tracer
from repro.pmstore.faults import TransientFault
from repro.pmstore.store import PMStore
from repro.service.admission import AdmissionController
from repro.service.metrics import MetricsRegistry
from repro.service.overload import OverloadConfig, OverloadManager
from repro.service.queue import BatchKey, Batch, RequestQueue
from repro.service.request import (
    BASE_LATENCY_NS,
    Request,
    RequestKind,
    RequestResult,
    RequestStatus,
)
from repro.service.retry import RetryPolicy
from repro.simulator.params import HardwareConfig
from repro.trace.workload import Workload


@dataclass(frozen=True, kw_only=True)
class ServiceConfig:
    """Service-level tuning knobs (all keyword-only).

    Attributes
    ----------
    threads_per_job:
        Simulated encode threads one dispatched batch occupies — the
        unit the admission controller accounts in.
    max_batch:
        Most requests coalesced into one simulated job.
    max_queue_depth:
        Queue bound; arrivals beyond it (while at the Eq. (1) cap) are
        rejected.
    retry:
        Exponential-backoff schedule for transient faults.
    verify_reads:
        Checksum-verify (and repair) every stripe touched by a GET
        before serving it. Off by default — it trades read cost for
        the guarantee that silent corruption can never reach a client;
        the chaos engine turns it on.
    overload:
        Optional :class:`~repro.service.overload.OverloadConfig`
        enabling deadline-aware admission, AIMD concurrency, retry
        budgets, hedged reads and brownout. ``None`` (the default)
        keeps the pre-overload behavior bit-for-bit.
    """

    threads_per_job: int = 1
    max_batch: int = 8
    max_queue_depth: int = 16
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    verify_reads: bool = False
    overload: OverloadConfig | None = None


class ErasureCodingService:
    """A concurrent EC object service over the simulated PM testbed.

    Parameters
    ----------
    k, m:
        Stripe geometry (one service serves one geometry; this is what
        makes queue coalescing and Eq.-(1) accounting exact).
    block_bytes:
        Stripe block size.
    library:
        Coding library charged for simulated encode/decode time
        (default: a probe-less :class:`DialgaEncoder`). Must match
        (k, m) or :class:`GeometryMismatch` is raised. Jobs run on the
        default :class:`HardwareConfig` testbed.
    config:
        :class:`ServiceConfig` knobs.
    """

    def __init__(self, k: int, m: int, *, block_bytes: int = 1024,
                 library: CodingLibrary | None = None,
                 config: ServiceConfig | None = None):
        self.k, self.m = k, m
        self.block_bytes = block_bytes
        self.config = config or ServiceConfig()
        self.hw = HardwareConfig()
        if library is None:
            library = DialgaEncoder(k, m, config=DialgaConfig(
                use_probe=False, chunks=2))
        if getattr(library, "k", k) != k or getattr(library, "m", m) != m:
            raise GeometryMismatch(
                f"library geometry ({library.k},{library.m}) != service "
                f"({k},{m})")
        self.library = library
        self.store = PMStore(k, m, block_bytes=block_bytes,
                             verify_reads=self.config.verify_reads)
        self.queue = RequestQueue(self.config.max_queue_depth)
        self.admission = AdmissionController(k, m, self.hw.pm)
        self.metrics = MetricsRegistry()
        #: Overload-control layer (None unless ``config.overload`` is
        #: set — the hot path stays byte-identical without it).
        self.overload: OverloadManager | None = None
        if self.config.overload is not None:
            self.overload = OverloadManager(
                self.config.overload,
                capacity_threads=self.admission.capacity_threads)
        #: Devices currently serving slowly: device -> (penalty_ns,
        #: until_ns). Reads touching one pay the penalty unless the
        #: brownout / hedging paths route around it.
        self.slow_devices: dict[int, tuple[float, float]] = {}
        #: Untraced coding jobs: workload -> (makespan_ns,
        #: policy_switches). ``library`` and ``hw`` are fixed for the
        #: service's lifetime, so a job's cost is a pure function of
        #: its workload.
        self._job_memo: dict[Workload, tuple[float, int]] = {}
        #: Optional :class:`~repro.service.healing.SelfHealer` run in
        #: the event loop's idle gaps (see :meth:`attach_healer`).
        self.healer = None
        #: Simulated clock (ns); persists across :meth:`drain` calls.
        self.clock_ns = 0.0
        self.results: list[RequestResult] = []
        self._pending: list[Request] = []
        self._seq = 0
        #: Open tracer spans per in-flight request (id(request) keyed —
        #: requests are frozen and unique per submission).
        self._req_spans: dict[int, object] = {}
        self._req_seq = 0
        #: Rebase onto the ambient tracer timeline: every service
        #: clock starts at 0, so without this two services traced in
        #: sequence would overlap in a viewer.
        self._trace_base_ns = get_tracer().max_ts

    def _ts(self, ns: float) -> float:
        """A service-clock instant on the shared tracer timeline."""
        return ns + self._trace_base_ns

    # -- client surface ----------------------------------------------------

    def submit(self, request: Request) -> None:
        """Hand one request to the service (processed on :meth:`drain`)."""
        self._pending.append(request)

    def submit_many(self, requests) -> None:
        """Submit an iterable of requests."""
        for req in requests:
            self.submit(req)

    def set_device_slow(self, device: int, penalty_ns: float,
                        until_ns: float = math.inf) -> None:
        """Mark ``device`` as slow: reads touching it pay ``penalty_ns``
        until the simulated clock passes ``until_ns`` (chaos's
        ``slow_device`` action; the hedging/brownout paths exist to
        route around exactly this)."""
        if penalty_ns < 0:
            raise ValueError("penalty_ns must be >= 0")
        self.slow_devices[device] = (float(penalty_ns), float(until_ns))
        self.metrics.inc("slow_device_marks")

    def _slow_penalty_ns(self) -> float:
        """Worst active slow-device penalty on a *data* device now."""
        worst = 0.0
        for dev, (penalty, until) in self.slow_devices.items():
            if dev < self.k and self.clock_ns < until:
                worst = max(worst, penalty)
        return worst

    def attach_healer(self, healer) -> None:
        """Attach a :class:`~repro.service.healing.SelfHealer`: from now
        on the event loop spends its idle simulated time on background
        scrubbing, priority repairs and breaker-driven device recovery."""
        healer.attach(self)
        self.healer = healer

    def run_maintenance(self, until_ns: float) -> float:
        """Let the attached healer work the idle clock up to
        ``until_ns`` (no-op without a healer); returns when it stopped.

        :meth:`drain` does this automatically inside request gaps; call
        it directly to model quiet periods between traffic waves.
        """
        if self.healer is None:
            return self.clock_ns
        return self.healer.run_window(self, self.clock_ns, until_ns)

    def drain(self) -> list[RequestResult]:
        """Run the event loop until every submitted request resolves.

        Returns this drain's results (also appended to ``results``).
        """
        arrivals = sorted(enumerate(self._pending),
                          key=lambda iv: (iv[1].arrival_ns, iv[0]))
        self._pending = []
        pending = [req for _, req in arrivals]
        active: list[tuple[float, int, Batch, int, list[RequestResult]]] = []
        out: list[RequestResult] = []
        i = 0
        while i < len(pending) or active:
            next_arrival = pending[i].arrival_ns if i < len(pending) else math.inf
            next_finish = active[0][0] if active else math.inf
            if (self.healer is not None and not active
                    and self.clock_ns < next_arrival < math.inf):
                # An idle gap on the simulated clock: no batch in
                # flight, next arrival still in the future. Hand it to
                # the self-healing loop (repairs, paced scrubbing,
                # breaker recovery) — "opportunistic maintenance
                # between requests".
                self.healer.run_window(self, self.clock_ns, next_arrival)
            if next_arrival <= next_finish:
                req = pending[i]
                i += 1
                self.clock_ns = max(self.clock_ns, req.arrival_ns)
                out.extend(self._on_arrival(req))
            else:
                finish, _, batch, threads, results = heapq.heappop(active)
                self.clock_ns = max(self.clock_ns, finish)
                self.admission.release(threads)
                for res in results:
                    res.latency_ns = finish - res.request.arrival_ns
                    self.metrics.observe_latency(res.request.kind.value,
                                                 res.latency_ns)
                    self.metrics.inc("completed" if res.ok else "failed")
                    if res.ok and finish > res.request.deadline_ns:
                        # Admission let it through but the estimate was
                        # optimistic — completed late, still served.
                        self.metrics.inc("deadline_misses")
                    span = self._req_spans.pop(id(res.request), None)
                    if span is not None:
                        span.end(self._ts(finish), status=res.status.value,
                                 latency_ns=res.latency_ns,
                                 retries=res.retries,
                                 degraded=res.degraded,
                                 batch_size=res.batch_size)
                out.extend(results)
                if self.overload is not None:
                    self._overload_observe(batch, finish)
            self._dispatch(active, out)
        self.results.extend(out)
        return out

    # -- event handlers ----------------------------------------------------

    def _batch_key(self, request: Request) -> BatchKey:
        return BatchKey(request.kind, self.k, self.m, self.block_bytes)

    def _shed(self, request: Request, reason: str, detail: str,
              at_ns: float) -> RequestResult:
        """Drop one request under overload control (fail-fast)."""
        self.metrics.inc("shed_total")
        self.metrics.inc(f"shed_{reason}")
        tracer = get_tracer()
        span = self._req_spans.pop(id(request), None)
        if tracer.enabled:
            tracer.event("overload.shed", self._ts(at_ns), span=span,
                         reason=reason, kind=request.kind.value,
                         key=request.key,
                         priority=request.resolved_priority.name.lower())
        if span is not None:
            span.end(self._ts(at_ns), status="shed", reason=reason)
        return RequestResult(request, RequestStatus.SHED,
                             error=f"shed ({reason}): {detail}")

    def _on_arrival(self, request: Request) -> list[RequestResult]:
        """Queue an arrival; returns any requests shed/rejected by it.

        Without overload control the only possible casualty is the
        arrival itself (REJECTED on a full queue). With it, the
        arrival may be shed fail-fast (infeasible deadline, brownout
        background shedding) or a *lower-priority queued* request may
        be evicted in its place — strict reverse-priority shedding.
        """
        self.metrics.inc("requests")
        self.metrics.sample_queue_depth(self.queue.depth)
        tracer = get_tracer()
        span = None
        if tracer.enabled:
            # Request spans interleave freely, so they live detached
            # from the nesting stack, one display track per client.
            self._req_seq += 1
            span = tracer.begin(
                "service.request", self._ts(request.arrival_ns),
                detached=True,
                request_id=f"{request.kind.value}-{self._req_seq}",
                kind=request.kind.value, key=request.key,
                client=request.client, track=f"client-{request.client}")
            span.event("service.enqueue", self._ts(request.arrival_ns),
                       queue_depth=self.queue.depth)
            self._req_spans[id(request)] = span
        if self.overload is not None:
            decision = self.overload.admit(
                request, self.clock_ns,
                queue_depth=self.queue.depth,
                max_batch=self.config.max_batch,
                active_threads=self.admission.active_threads,
                threads_per_job=self.config.threads_per_job)
            if decision is not None:
                return [self._shed(request, decision.reason,
                                   decision.detail, request.arrival_ns)]
        if not self.queue.push(self._batch_key(request), request):
            if self.overload is not None:
                # Reverse-priority shedding: evict the least-important
                # queued request strictly below this arrival's class.
                entry = self.queue.evict_lower_priority(
                    request.resolved_priority)
                if entry is not None:
                    _, victim = entry
                    shed = self._shed(
                        victim, "priority",
                        f"evicted for {request.resolved_priority.name} "
                        f"arrival", request.arrival_ns)
                    self.queue.push(self._batch_key(request), request)
                    return [shed]
                # Nothing below it queued: the arrival is the least
                # important thing in the building — it is the shed.
                return [self._shed(
                    request, "priority",
                    f"queue full at {self.queue.max_depth}, no "
                    f"lower-priority victim", request.arrival_ns)]
            # Dispatch invariant: the queue only backs up while the
            # admission controller is at the Eq. (1) cap, so a full
            # queue here IS the cap overflowing onto the client.
            self.metrics.inc("admission_rejected")
            if not self.admission.at_capacity:
                self.metrics.inc("rejected_below_cap")  # must stay 0
            if span is not None:
                self._req_spans.pop(id(request), None)
                span.end(self._ts(request.arrival_ns), status="rejected")
            return [RequestResult(
                request, RequestStatus.REJECTED,
                error=(f"Eq. (1) cap: {self.admission.active_threads}/"
                       f"{self.admission.capacity_threads} threads busy, "
                       f"queue full at {self.queue.max_depth}"))]
        return []

    def _overload_observe(self, batch: Batch, finish_ns: float) -> None:
        """Feed one batch completion to the overload controllers."""
        mgr = self.overload
        latency = finish_ns - batch.dispatched_ns
        mgr.observe_batch(latency)
        saturated = mgr.pressure_observation(
            queue_depth=self.queue.depth,
            max_queue_depth=self.queue.max_depth,
            batch_latency_ns=latency)
        transition = mgr.brownout.observe(saturated, finish_ns)
        if transition is not None:
            self.metrics.inc(f"brownout_{transition}s")
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(f"overload.brownout_{transition}",
                             self._ts(finish_ns),
                             queue_depth=self.queue.depth,
                             concurrency_limit=mgr.concurrency.limit,
                             ewma_batch_ns=round(mgr.ewma_batch_ns, 1))

    def _dispatch(self, active: list, out: list) -> None:
        """Launch coalesced batches while the Eq. (1) budget allows.

        With overload control the AIMD limit gates dispatch *under* the
        Eq. (1) cap, and requests whose deadline already passed while
        queued are dropped here instead of occupying an encode job
        (deadline propagation into batches).
        """
        threads = self.config.threads_per_job
        tracer = get_tracer()
        while len(self.queue):
            if (self.overload is not None
                    and self.admission.active_threads + threads
                    > self.overload.concurrency.limit):
                break
            if not self.admission.try_admit(threads):
                break
            batch = self.queue.pop_batch(self.config.max_batch)
            if self.overload is not None:
                batch.dispatched_ns = self.clock_ns
                live = []
                for req in batch.requests:
                    if req.deadline_ns < self.clock_ns:
                        self.metrics.inc("deadline_expired_queued")
                        out.append(self._shed(
                            req, "deadline",
                            f"expired in queue ({self.clock_ns:.0f}ns > "
                            f"{req.deadline_ns:.0f}ns)", self.clock_ns))
                    else:
                        self.metrics.observe_latency(
                            "queue_wait", self.clock_ns - req.arrival_ns)
                        live.append(req)
                if not live:
                    self.admission.release(threads)
                    continue
                batch.requests = live
            self.metrics.inc("batches")
            if batch.coalesced:
                self.metrics.inc("coalesced_requests", len(batch) - 1)
            batch_span = None
            if tracer.enabled:
                batch_span = tracer.begin(
                    "service.batch", self._ts(self.clock_ns),
                    track="service",
                    kind=batch.key.kind.value, requests=len(batch),
                    coalesced=batch.coalesced,
                    active_threads=self.admission.active_threads)
                for req in batch.requests:
                    span = self._req_spans.get(id(req))
                    if span is not None:
                        span.event("service.admitted",
                                   self._ts(self.clock_ns),
                                   batch_size=len(batch))
            finish, results = self._execute(batch)
            if batch_span is not None:
                tracer.end(batch_span, self._ts(finish))
            for res in results:
                res.batch_size = len(batch)
            self._seq += 1
            heapq.heappush(active, (finish, self._seq, batch, threads, results))

    # -- batch execution ---------------------------------------------------

    def _with_retries(self, op, request: Request) -> tuple[RequestResult, float]:
        """Run a store operation under the retry policy.

        Returns the (partial) result plus the simulated backoff delay
        the retries consumed.
        """
        policy = self.config.retry
        span = self._req_spans.get(id(request))
        # Jitter de-sync token: stable per request identity, so the
        # same request jitters identically in every run while
        # different requests spread out (breaking retry storms).
        token = zlib.crc32(
            f"{request.kind.value}:{request.key}:{request.client}".encode())
        retries, delay = 0, 0.0
        while True:
            try:
                value = op()
                if self.overload is not None:
                    # Successful traffic refills the retry budget —
                    # retries stay a bounded *fraction* of goodput.
                    self.overload.retry_budget.on_success()
                result = RequestResult(request, RequestStatus.COMPLETED,
                                       retries=retries,
                                       value=value if isinstance(value, bytes) else b"")
                return result, delay
            except TransientFault as exc:
                self.metrics.inc("faults_transient")
                if self.healer is not None:
                    self.healer.on_transient(self.clock_ns + delay)
                if span is not None:
                    span.event("service.fault",
                               self._ts(self.clock_ns + delay),
                               error=str(exc), attempt=retries + 1)
                if retries + 1 >= policy.max_attempts:
                    return RequestResult(request, RequestStatus.FAILED,
                                         retries=retries, error=str(exc)), delay
                if (self.overload is not None
                        and self.overload.config.retry_budget_enabled
                        and not self.overload.retry_budget.try_spend()):
                    # Budget dry: fail fast instead of amplifying a
                    # correlated-fault window into a retry storm.
                    self.metrics.inc("retry_budget_denied")
                    if span is not None:
                        span.event("service.retry_denied",
                                   self._ts(self.clock_ns + delay),
                                   attempt=retries + 1)
                    return RequestResult(
                        request, RequestStatus.FAILED, retries=retries,
                        error=f"retry budget exhausted: {exc}"), delay
                retries += 1
                self.metrics.inc("retries")
                delay += policy.delay_ns(retries, token=token)
                if span is not None:
                    span.event("service.retry",
                               self._ts(self.clock_ns + delay),
                               attempt=retries, backoff_ns=delay)
            except KeyError:
                return RequestResult(request, RequestStatus.FAILED,
                                     retries=retries,
                                     error=f"no such key {request.key!r}"), delay
            except ValueError as exc:
                # Unrecoverable at request time (e.g. a degraded read
                # over a stripe whose losses exceed the parity budget).
                # Fail the request — never crash the event loop — and
                # leave the stripe to the repair queue / scrubber.
                self.metrics.inc("faults_unrecoverable")
                return RequestResult(request, RequestStatus.FAILED,
                                     retries=retries, error=str(exc)), delay

    def _coding_makespan(self, stripes: int, op: str = "encode",
                         erasures: int = 0) -> float:
        """Simulate one coalesced coding job of ``stripes`` stripes."""
        if stripes < 1:
            return 0.0
        threads = self.config.threads_per_job
        per_thread = max(1, math.ceil(stripes / threads)) * \
            self.k * self.block_bytes
        wl = Workload(k=self.k, m=self.m, block_bytes=self.block_bytes,
                      nthreads=threads, data_bytes_per_thread=per_thread,
                      op=op, erasures=erasures)
        tracer = get_tracer()
        if tracer.enabled:
            # The coding job simulates on [0, makespan]; rebase it onto
            # the service clock so simulator spans and request spans
            # share one timeline.
            with tracer.shifted(self._ts(self.clock_ns)):
                res = self.library.run(wl, self.hw)
                coord = getattr(self.library, "last_coordinator", None)
                if coord is not None and getattr(coord, "decision_log", None):
                    # Coordinator decisions land as decision.* instants
                    # on the same rebased timeline as the job's spans.
                    from repro.obs.audit import ledger_from_coordinator
                    ledger_from_coordinator(coord).emit_events(tracer)
            makespan = res.sim.makespan_ns
            switches = getattr(self.library, "policy_switches", 0)
        else:
            makespan, switches = self._job_cost(wl)
        if switches:
            self.metrics.inc("policy_switches", switches)
        return makespan

    def _job_cost(self, wl: Workload) -> tuple[float, int]:
        """``(makespan_ns, policy_switches)`` of one untraced coding
        job, simulated once per distinct workload."""
        cost = self._job_memo.get(wl)
        if cost is None:
            res = self.library.run(wl, self.hw)
            cost = self._job_memo[wl] = (
                res.sim.makespan_ns,
                getattr(self.library, "policy_switches", 0))
        return cost

    def _transfer_ns(self, nbytes: int) -> float:
        """DDR-T transfer time for ``nbytes`` (GB/s == bytes/ns)."""
        return nbytes / self.hw.pm.ctrl_bw_gbps

    def _execute(self, batch: Batch) -> tuple[float, list[RequestResult]]:
        """Run one batch; returns (finish time, per-request results)."""
        base = BASE_LATENCY_NS * len(batch)
        if batch.key.kind is RequestKind.PUT:
            return self._execute_puts(batch, base)
        if batch.key.kind is RequestKind.GET:
            return self._execute_gets(batch, base)
        stripes = sum(req.stripes for req in batch.requests)
        makespan = self._coding_makespan(stripes)
        results = [RequestResult(req, RequestStatus.COMPLETED)
                   for req in batch.requests]
        return self.clock_ns + base + makespan, results

    def _store_put(self, key: str, payload: bytes) -> None:
        """Store a payload, sharding across stripes when oversized."""
        if len(payload) > self.store.stripe_data_bytes:
            self.store.put_sharded(key, payload)
        else:
            self.store.put(key, payload)

    def _execute_puts(self, batch: Batch, base: float) -> tuple[float, list[RequestResult]]:
        results, delay, stripes = [], 0.0, 0
        cap = self.store.stripe_data_bytes
        for req in batch.requests:
            result, req_delay = self._with_retries(
                lambda r=req: self._store_put(r.key, r.payload), req)
            results.append(result)
            delay += req_delay
            if result.ok:
                stripes += max(1, math.ceil(len(req.payload) / cap))
        # The whole batch is ONE simulated encode job (coalescing): each
        # successful put re-encoded its stripes' parity.
        makespan = self._coding_makespan(stripes)
        transfer = self._transfer_ns(sum(len(r.payload)
                                         for r in batch.requests))
        return self.clock_ns + base + delay + transfer + makespan, results

    def _hedge_decode_cost_ns(self) -> float:
        """Single-stripe decode estimate for hedge accounting.

        Read from the job memo under a silenced tracer (the estimate is
        an accounting device, not a real simulated job — same pattern
        as ``SelfHealer._decode_cost_ns``).
        """
        wl = Workload(k=self.k, m=self.m, block_bytes=self.block_bytes,
                      nthreads=1,
                      data_bytes_per_thread=self.k * self.block_bytes,
                      op="decode", erasures=1)
        with use_tracer(None):
            return self._job_cost(wl)[0]

    def _slow_read_extra_ns(self, penalty_ns: float) -> tuple[float, bool, bool]:
        """Extra per-read cost under an active slow device.

        Returns ``(extra_ns, served_degraded, charge_decode)`` —
        ``charge_decode`` asks the caller to add the read to the
        batch's coalesced decode (the hedge path instead bakes its own
        decode estimate into ``extra_ns``). Three regimes:

        * brownout active → proactively reconstruct through parity,
          skipping the slow device entirely;
        * overload control on → primary waits ``hedge_delay``; if
          still stalled, a degraded-path hedge races it. The cheaper
          path wins and the loser is cancelled;
        * neither → eat the full penalty.
        """
        mgr = self.overload
        if mgr is not None and mgr.brownout.active:
            self.metrics.inc("brownout_degraded_reads")
            return 0.0, True, True
        if mgr is not None:
            hedge_delay = mgr.hedge_delay_ns(
                self.metrics.latency.get("get"))
            if penalty_ns <= hedge_delay:
                # Primary answered before the hedge timer fired.
                self.metrics.inc("hedges_cancelled")
                return penalty_ns, False, False
            self.metrics.inc("hedges_issued")
            hedge_cost = hedge_delay + self._hedge_decode_cost_ns()
            if hedge_cost < penalty_ns:
                self.metrics.inc("hedges_won")
                return hedge_cost, True, False
            self.metrics.inc("hedges_lost")
            return penalty_ns, False, False
        return penalty_ns, False, False

    def _execute_gets(self, batch: Batch, base: float) -> tuple[float, list[RequestResult]]:
        results, delay, nbytes, degraded_stripes = [], 0.0, 0, 0
        slow_penalty = self._slow_penalty_ns()
        for req in batch.requests:
            degraded = (req.key in self.store.keys()
                        and self.store.is_degraded(req.key))
            result, req_delay = self._with_retries(
                lambda r=req: self.store.get(r.key), req)
            result.degraded = degraded and result.ok
            if result.degraded:
                degraded_stripes += 1
                self.metrics.inc("degraded_reads")
                if self.healer is not None:
                    self.healer.on_degraded_read(req.key, self.clock_ns)
            if slow_penalty > 0.0 and result.ok and not result.degraded:
                extra, hedged, charge = self._slow_read_extra_ns(slow_penalty)
                req_delay += extra
                if hedged:
                    # Served through parity reconstruction around the
                    # slow device — degraded from the client's view.
                    result.degraded = True
                if charge:
                    degraded_stripes += 1
            results.append(result)
            delay += req_delay
            nbytes += len(result.value)
        # Degraded reads pay a coalesced RS decode on top of the
        # transfer (one erasure per stripe: the lost device's block).
        erasures = min(self.m, self.k, max(1, len(self.store.lost_devices)))
        makespan = self._coding_makespan(degraded_stripes, op="decode",
                                         erasures=erasures)
        return (self.clock_ns + base + delay + self._transfer_ns(nbytes)
                + makespan, results)
