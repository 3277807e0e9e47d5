"""Overload resilience: what the service does when it cannot do everything.

The paper's coordinator (§4.1) is a feedback controller: it watches
hardware counters and adapts prefetch policy to observed pressure. This
module applies the same adaptive-feedback discipline one layer up, to
*service admission* — four cooperating mechanisms, all deterministic on
the simulated clock:

* **Deadline-aware admission** — every :class:`~repro.service.request.
  Request` may carry a deadline; an arrival whose estimated completion
  (queue-wait estimate + service-time EWMA) already misses it is shed
  at *enqueue* (fail-fast), before it consumes any decode work.
  Deadlines propagate into batches: requests that expire while queued
  are dropped at dispatch instead of occupying an encode job.
* **Adaptive concurrency** — an AIMD controller
  (:class:`ConcurrencyController`) tracks observed batch latency
  against a target and adjusts the effective in-flight thread limit,
  always composing with — never exceeding — the Eq. (1) admission cap.
* **Retry budgets** — a token bucket (:class:`RetryBudget`) refilled
  by a fraction of *successful* traffic caps total retry volume, so a
  correlated transient-fault window cannot amplify into a metastable
  retry storm.
* **Priority classes and brownout** — foreground reads > writes >
  background work, shed in strict reverse-priority order (a full queue
  evicts the lowest class first), plus a :class:`BrownoutController`
  state machine that, under *sustained* saturation, proactively serves
  degraded reads (skipping slow or breaker-open devices) and sheds
  background work outright, reverting when pressure clears.

Everything here is policy; the mechanisms live in
:class:`~repro.service.service.ErasureCodingService`, which consults an
:class:`OverloadManager` when ``ServiceConfig.overload`` is set and
behaves exactly as before when it is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.service.request import BASE_LATENCY_NS, Priority, Request

#: A batch slower than this many ``target_batch_latency_ns`` reads as
#: saturated to the brownout state machine.
BROWNOUT_LATENCY_FACTOR = 3.0


@dataclass(frozen=True, kw_only=True)
class OverloadConfig:
    """Tuning knobs for the overload-control layer (all keyword-only).

    Attributes
    ----------
    deadline_admission:
        Shed deadline-infeasible arrivals at enqueue.
    target_batch_latency_ns:
        Batch service-time target the AIMD controller steers toward.
    aimd_increase:
        Additive thread-limit increase per on-target batch.
    aimd_decrease:
        Multiplicative limit factor applied per over-target batch.
    min_concurrency:
        Floor of the adaptive limit (the service must keep moving).
    retry_budget_enabled:
        Cap retries with the token bucket (off = unbudgeted retries,
        the metastability counterfactual).
    retry_budget_initial / retry_budget_ratio / retry_budget_cap:
        Token bucket: starting balance, tokens earned per successful
        operation, and balance cap.
    brownout_enter_pressure / brownout_exit_pressure:
        Queue-depth fractions (of ``max_queue_depth``) read as
        saturated / clear.
    brownout_enter_after / brownout_exit_after:
        Consecutive saturated / clear observations required to flip
        the brownout state machine (hysteresis).
    hedge_quantile:
        GET-latency quantile (0..1) that arms the hedge timer.
    hedge_min_delay_ns:
        Hedge-delay floor, also used before enough samples exist.
    hedge_min_samples:
        GET latencies observed before the quantile is trusted.
    ewma_alpha:
        Weight of the newest batch in the service-time EWMA.
    """

    deadline_admission: bool = True
    target_batch_latency_ns: float = 8_000_000.0
    aimd_increase: float = 1.0
    aimd_decrease: float = 0.5
    min_concurrency: int = 1
    retry_budget_enabled: bool = True
    retry_budget_initial: float = 8.0
    retry_budget_ratio: float = 0.1
    retry_budget_cap: float = 40.0
    brownout_enter_pressure: float = 0.75
    brownout_exit_pressure: float = 0.25
    brownout_enter_after: int = 3
    brownout_exit_after: int = 4
    hedge_quantile: float = 0.95
    hedge_min_delay_ns: float = 250_000.0
    hedge_min_samples: int = 8
    ewma_alpha: float = 0.3

    def __post_init__(self):
        if self.target_batch_latency_ns <= 0:
            raise ValueError("target_batch_latency_ns must be positive")
        if not 0.0 < self.aimd_decrease < 1.0:
            raise ValueError("aimd_decrease must be in (0, 1)")
        if self.aimd_increase <= 0:
            raise ValueError("aimd_increase must be positive")
        if self.min_concurrency < 1:
            raise ValueError("min_concurrency must be >= 1")
        if (self.retry_budget_initial < 0 or self.retry_budget_ratio < 0
                or self.retry_budget_cap < self.retry_budget_initial):
            raise ValueError("retry budget needs 0 <= initial <= cap and "
                             "ratio >= 0")
        if not (0.0 <= self.brownout_exit_pressure
                <= self.brownout_enter_pressure <= 1.0):
            raise ValueError("brownout pressures need "
                             "0 <= exit <= enter <= 1")
        if self.brownout_enter_after < 1 or self.brownout_exit_after < 1:
            raise ValueError("brownout hysteresis counts must be >= 1")
        if not 0.0 < self.hedge_quantile < 1.0:
            raise ValueError("hedge_quantile must be in (0, 1)")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")


class RetryBudget:
    """Token bucket capping retries to a fraction of successful traffic.

    Every successful operation deposits ``ratio`` tokens (up to
    ``cap``); every retry withdraws one whole token or is **denied**.
    The invariant property tests pin: lifetime retries spent never
    exceed ``initial + ratio * successes`` — so under a correlated
    fault storm the retry volume is bounded by the service's own
    goodput instead of amplifying it away.
    """

    def __init__(self, *, initial: float = 8.0, ratio: float = 0.1,
                 cap: float = 40.0):
        if initial < 0 or ratio < 0 or cap < initial:
            raise ValueError("retry budget needs 0 <= initial <= cap and "
                             "ratio >= 0")
        self.ratio = ratio
        self.cap = cap
        self.tokens = float(initial)
        #: Lifetime accounting (observability + the property tests).
        self.initial = float(initial)
        self.successes = 0
        self.spent = 0
        self.denied = 0

    def on_success(self) -> None:
        """Deposit the per-success fraction (saturating at the cap)."""
        self.successes += 1
        self.tokens = min(self.cap, self.tokens + self.ratio)

    def try_spend(self) -> bool:
        """Withdraw one token for a retry; False = retry denied."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.denied += 1
        return False

    @property
    def budget_bound(self) -> float:
        """The invariant ceiling: ``initial + ratio * successes``."""
        return self.initial + self.ratio * self.successes


class ConcurrencyController:
    """AIMD controller over the effective in-flight thread limit.

    The limit lives in ``[min_concurrency, capacity]`` where
    ``capacity`` is the Eq. (1) cap — the adaptive limit *composes
    with* the paper's bound, it can only tighten it. Each completed
    batch reports its service latency: on-target batches earn an
    additive increase, over-target batches a multiplicative decrease
    (the classic TCP-shaped response that keeps the service at the
    knee instead of oscillating past it).
    """

    def __init__(self, capacity: int, *, target_ns: float,
                 increase: float = 1.0, decrease: float = 0.5,
                 floor: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if floor < 1 or floor > capacity:
            raise ValueError(f"floor must be in [1, {capacity}]")
        self.capacity = capacity
        self.target_ns = float(target_ns)
        self.increase = increase
        self.decrease = decrease
        self.floor = floor
        self._limit = float(capacity)
        self.increases = 0
        self.decreases = 0

    @property
    def limit(self) -> int:
        """Current effective thread limit (never above the Eq. (1) cap)."""
        return max(self.floor, min(self.capacity, int(self._limit)))

    def observe(self, latency_ns: float) -> None:
        """Feed one batch's observed service latency."""
        if latency_ns <= self.target_ns:
            before = self.limit
            self._limit = min(float(self.capacity),
                              self._limit + self.increase)
            if self.limit > before:
                self.increases += 1
        else:
            before = self.limit
            self._limit = max(float(self.floor),
                              self._limit * self.decrease)
            if self.limit < before:
                self.decreases += 1


class BrownoutController:
    """Hysteresis state machine: NORMAL <-> BROWNOUT.

    ``enter_after`` consecutive saturated observations engage brownout;
    ``exit_after`` consecutive clear ones disengage it. While engaged
    the service proactively degrades: background work is shed at
    admission and reads skip slow/breaker-open devices through parity
    reconstruction instead of waiting on them.
    """

    def __init__(self, *, enter_after: int = 3, exit_after: int = 4):
        if enter_after < 1 or exit_after < 1:
            raise ValueError("hysteresis counts must be >= 1")
        self.enter_after = enter_after
        self.exit_after = exit_after
        self.active = False
        self._saturated_streak = 0
        self._clear_streak = 0
        #: ``(at_ns, "enter"|"exit")`` transitions, in clock order.
        self.transitions: list[tuple[float, str]] = []

    def observe(self, saturated: bool, now_ns: float) -> str | None:
        """Feed one pressure observation; returns a transition or None."""
        if saturated:
            self._saturated_streak += 1
            self._clear_streak = 0
            if not self.active and self._saturated_streak >= self.enter_after:
                self.active = True
                self.transitions.append((now_ns, "enter"))
                return "enter"
        else:
            self._clear_streak += 1
            self._saturated_streak = 0
            if self.active and self._clear_streak >= self.exit_after:
                self.active = False
                self.transitions.append((now_ns, "exit"))
                return "exit"
        return None


@dataclass
class ShedDecision:
    """Why an arrival was turned away (reason keys are metric names)."""

    reason: str            # "deadline" | "brownout" | "priority"
    detail: str = ""
    #: A lower-priority queued request evicted to make room (priority
    #: shedding on a full queue); None otherwise.
    victim: Request | None = field(default=None)


class OverloadManager:
    """Glue object consulted by the service's event loop.

    Owns the four controllers plus the queue-wait estimator; stateless
    toward the service otherwise — every method takes the observed
    quantities explicitly so the manager is unit-testable alone.
    """

    def __init__(self, config: OverloadConfig, *, capacity_threads: int,
                 base_latency_ns: float = BASE_LATENCY_NS):
        self.config = config
        self.concurrency = ConcurrencyController(
            capacity_threads,
            target_ns=config.target_batch_latency_ns,
            increase=config.aimd_increase,
            decrease=config.aimd_decrease,
            floor=config.min_concurrency)
        self.retry_budget = RetryBudget(
            initial=config.retry_budget_initial,
            ratio=config.retry_budget_ratio,
            cap=config.retry_budget_cap)
        self.brownout = BrownoutController(
            enter_after=config.brownout_enter_after,
            exit_after=config.brownout_exit_after)
        #: EWMA of observed batch service time; seeded optimistically
        #: so a cold service never sheds its first arrivals.
        self.ewma_batch_ns = float(base_latency_ns)
        self.batches_observed = 0

    # -- queue-wait estimation / deadline admission -------------------------

    def observe_batch(self, latency_ns: float) -> None:
        """Fold one completed batch into the EWMA + AIMD controller."""
        alpha = self.config.ewma_alpha
        self.ewma_batch_ns = (alpha * latency_ns
                              + (1.0 - alpha) * self.ewma_batch_ns)
        self.batches_observed += 1
        self.concurrency.observe(latency_ns)

    def estimate_finish_ns(self, now_ns: float, *, queue_depth: int,
                           max_batch: int, active_threads: int,
                           threads_per_job: int) -> float:
        """Estimated completion instant for an arrival enqueued now.

        Work ahead of the arrival = in-flight batches + the batches the
        queue will coalesce into; the effective drain rate is the
        adaptive limit in batch slots. Deliberately simple and
        deterministic — an *admission estimate*, not a simulation.
        """
        queued_batches = math.ceil((queue_depth + 1) / max(1, max_batch))
        active_batches = active_threads / max(1, threads_per_job)
        slots = max(1.0, self.concurrency.limit / max(1, threads_per_job))
        wait = self.ewma_batch_ns * (active_batches + queued_batches) / slots
        return now_ns + wait + self.ewma_batch_ns

    def admit(self, request: Request, now_ns: float, *, queue_depth: int,
              max_batch: int, active_threads: int,
              threads_per_job: int) -> ShedDecision | None:
        """Admission verdict for one arrival (None = let it queue)."""
        priority = request.resolved_priority
        if self.brownout.active and priority is Priority.BACKGROUND:
            return ShedDecision("brownout",
                                "background work shed while browned out")
        if (self.config.deadline_admission
                and math.isfinite(request.deadline_ns)):
            est = self.estimate_finish_ns(
                now_ns, queue_depth=queue_depth, max_batch=max_batch,
                active_threads=active_threads,
                threads_per_job=threads_per_job)
            if est > request.deadline_ns:
                return ShedDecision(
                    "deadline",
                    f"estimated finish {est:.0f}ns past deadline "
                    f"{request.deadline_ns:.0f}ns")
        return None

    # -- brownout pressure --------------------------------------------------

    def pressure_observation(self, *, queue_depth: int, max_queue_depth: int,
                             batch_latency_ns: float) -> bool:
        """Whether this completion instant reads as *saturated*."""
        cfg = self.config
        pressure = queue_depth / max(1, max_queue_depth)
        return (pressure >= cfg.brownout_enter_pressure
                or batch_latency_ns > (BROWNOUT_LATENCY_FACTOR
                                       * cfg.target_batch_latency_ns))

    # -- hedging ------------------------------------------------------------

    def hedge_delay_ns(self, get_histogram) -> float:
        """The armed hedge delay: a GET-latency quantile with a floor.

        ``get_histogram`` is the service's ``latency["get"]``
        :class:`~repro.service.metrics.LatencyHistogram` (or None
        before any GET completed).
        """
        cfg = self.config
        if (get_histogram is None
                or get_histogram.count < cfg.hedge_min_samples):
            return cfg.hedge_min_delay_ns
        return max(cfg.hedge_min_delay_ns,
                   get_histogram.percentile(cfg.hedge_quantile * 100.0))
