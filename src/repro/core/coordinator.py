"""DIALGA's adaptive coordinator (§4.1).

Combines two signal sources, exactly as the paper describes:

* **I/O access pattern** (collected at the library interface): stripe
  width k, block size, thread count. These set the *initial* policy —
  e.g. wide stripes need no hardware-prefetcher management (the
  streamer self-disables past its tracking capacity), thread counts
  beyond the threshold get the high-pressure strategy.
* **Cache events** (sampled from PMU-style counters at 1 kHz): average
  load latency vs. a low-pressure baseline (contention if > 110%), and
  useless-L2-prefetch growth (inefficient prefetcher if > 150%). Both
  firing together disables the hardware prefetcher via the shuffle
  mapping; recovery re-enables it.

The software-prefetch distance starts at ``d = k`` and is refined by
hill climbing (§4.1.2) whenever performance fluctuates by more than
10%.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.core.buffer_friendly import (
    bf_distances,
    eq1_max_distance,
    thrash_thread_bound,
)
from repro.core.hillclimb import HillClimber
from repro.core.policy import Policy
from repro.obs import get_tracer
from repro.simulator.counters import Counters
from repro.simulator.params import HardwareConfig
from repro.trace.workload import Workload


# Thresholds of the adaptive switching heuristics (paper §4.1.2).

#: Contention: avg load latency above this factor of the baseline.
LATENCY_FACTOR = 1.10
#: Inefficiency: useless-prefetch count growth above this factor.
USELESS_GROWTH_FACTOR = 1.50
#: Concurrency beyond this disables the hardware prefetcher.
THREAD_THRESHOLD = 12
#: Counter sampling period (1 kHz of simulated time).
SAMPLE_PERIOD_NS = 1_000_000.0
#: Throughput fluctuation that retriggers the distance search.
PERF_FLUCTUATION = 0.10
#: Stripes wider than this overflow the streamer (Obs. 3).
WIDE_STRIPE_K = 32
#: Hill-climb neighborhood size.
NEIGHBORHOOD = 16


class ThresholdCheck(NamedTuple):
    """One §4.1.2 predicate evaluation: the measured value, the limit it
    was compared against, and whether it fired."""

    name: str
    value: float
    limit: float
    fired: bool

    def describe(self) -> str:
        mark = "FIRED" if self.fired else "ok"
        return f"{self.name}: {self.value:.4g} vs {self.limit:.4g} [{mark}]"


class DecisionEvidence(NamedTuple):
    """Everything the coordinator saw and weighed for one decision.

    Recorded on :attr:`AdaptiveCoordinator.decision_log` for every
    initial-policy derivation and every :meth:`~AdaptiveCoordinator.
    observe` sample — the raw material for the
    :class:`repro.obs.audit.DecisionLedger` and the counterfactual
    regret replay (:mod:`repro.obs.replay`).
    """

    #: ``"initial"`` (I/O-pattern decision at construction) or
    #: ``"observe"`` (one counter-delta sample).
    kind: str
    #: Sample index (0 for the initial decision).
    sample: int
    #: Timestamp on the simulated timeline the decision applies from.
    now_ns: float
    #: Non-zero counter deltas the decision saw (empty for initial).
    delta: dict
    #: Every threshold predicate evaluated, in evaluation order.
    checks: tuple
    #: Candidate policies weighed (always includes ``chosen``).
    candidates: tuple
    #: Policy in force before the decision (None for initial).
    old: Policy | None
    #: Policy in force after the decision.
    chosen: Policy
    #: Whether the decision changed the policy.
    switched: bool
    #: Hill-climb trajectory ``(step, distance, ns_per_byte)`` when a
    #: distance search ran as part of this decision.
    climb: tuple
    #: Chunk throughput observed with the sample (None when unknown).
    throughput_gbps: float | None

    def fired(self, name: str) -> bool:
        """Whether the named predicate fired in this decision."""
        return any(c.fired for c in self.checks if c.name == name)


class AdaptiveCoordinator:
    """Decides and adapts the prefetcher-scheduling policy for one job."""

    def __init__(self, wl: Workload, hw: HardwareConfig,
                 probe: Callable[[int], float] | None = None,
                 policy_probe: Callable[["Policy"], float] | None = None):
        self.wl = wl
        self.hw = hw
        self.probe = probe
        self.policy_probe = policy_probe
        #: Full evidence trail, one entry per decision (the initial
        #: I/O-pattern decision plus every observe() sample) — the one
        #: record of what was decided and why, consumed by
        #: :class:`repro.obs.audit.DecisionLedger` and the service
        #: layer's switch metrics.
        self.decision_log: list[DecisionEvidence] = []
        #: Stripes per adaptation window of the enclosing run, set by
        #: the DIALGA chunk loop — the counterfactual replay's default
        #: window size.
        self.window_stripes: int | None = None
        self.policy = self._initial_policy()
        #: Low-pressure references (paper: "110% of the average latency
        #: under low pressure"). Set via :meth:`set_baseline` from a
        #: calibration run, else learned from the first sample.
        self.baseline_latency_ns: float | None = None
        self.baseline_useless_per_load: float | None = None
        self._saved_policy: Policy | None = None
        self._prev_throughput: float | None = None
        self._samples_seen = 0

    @property
    def switches(self) -> int:
        """Dynamic policy flips so far (decisions that changed it)."""
        return sum(ev.switched for ev in self.decision_log)

    def set_baseline(self, sample: Counters) -> None:
        """Install low-pressure reference levels from a calibration run."""
        if sample.loads:
            self.baseline_latency_ns = sample.avg_load_latency_ns
            self.baseline_useless_per_load = sample.hwpf_useless / sample.loads

    # -- initial decision from the I/O access pattern ---------------------

    def _search_distance(self, start: int, upper: int) -> tuple[int, tuple]:
        """Hill-climb the distance; returns (best, accepted trajectory)."""
        if self.probe is None:
            return start, ()
        tracer = get_tracer()
        on_step = None
        if tracer.enabled:
            # Each accepted move becomes a timeline event; the probe
            # simulations it ran land just before it, so max_ts is the
            # natural "when" for a search that has no simulated clock
            # of its own.
            def on_step(step: int, x: int, value: float) -> None:
                tracer.event("coordinator.hillclimb_step", tracer.max_ts,
                             track="coordinator", step=step, distance=x,
                             probe_ns_per_byte=value)
        climber = HillClimber(self.probe, lower=1, upper=upper,
                              neighborhood=NEIGHBORHOOD,
                              on_step=on_step)
        best, _ = climber.search(start)
        if tracer.enabled:
            tracer.event("coordinator.hillclimb_done", tracer.max_ts,
                         track="coordinator", start=start, best=best,
                         evaluations=climber.evaluations)
        return best, tuple(climber.trajectory)

    def _high_pressure_policy(self) -> Policy:
        """§4.1.2 + §4.3.3: disable the streamer (shuffle), expand the
        loop to XPLine granularity, cap the distance by Eq. (1)."""
        wl = self.wl
        lines_per_block = max(1, wl.block_bytes // 64)
        elems = lines_per_block * wl.k
        cap = eq1_max_distance(wl.nthreads, wl.k, wl.m, self.hw.pm)
        d = min(wl.k, cap, max(1, elems - 1))
        return Policy(hw_prefetch=False, sw_distance=d,
                      bf_first_distance=None, xpline_granularity=True)

    def _initial_policy(self) -> Policy:
        wl = self.wl
        lines_per_block = max(1, wl.block_bytes // 64)
        elems = lines_per_block * wl.k
        # The fixed 12-thread threshold comes from the paper's testbed
        # observations (k=24); Eq.-(1) reasoning generalizes it: the
        # read buffer holds capacity/k concurrent stream sets, so wide
        # stripes hit pressure earlier (§5.3's 8 x 48 bound).
        threshold = min(THREAD_THRESHOLD,
                        thrash_thread_bound(wl.k, self.hw.pm))
        checks = [ThresholdCheck("thread_pressure", wl.nthreads, threshold,
                                 wl.nthreads > threshold),
                  ThresholdCheck("wide_stripe", wl.k, WIDE_STRIPE_K,
                                 wl.k > WIDE_STRIPE_K),
                  ThresholdCheck("large_block", wl.block_bytes, 4096,
                                 wl.block_bytes >= 4096)]

        def decide(chosen: Policy, candidates: tuple, climb: tuple) -> Policy:
            self.decision_log.append(DecisionEvidence(
                kind="initial", sample=0, now_ns=0.0, delta={},
                checks=tuple(checks), candidates=candidates, old=None,
                chosen=chosen, switched=False, climb=climb,
                throughput_gbps=None))
            return chosen

        if wl.nthreads > threshold:
            high = self._high_pressure_policy()
            return decide(high, (high,), ())
        d, climb = self._search_distance(
            wl.k, upper=max(2, min(elems - 1, 8 * wl.k)))
        d_first, d = bf_distances(wl.k, base=d) if self.probe is not None \
            else bf_distances(wl.k)
        d = min(d, max(1, elems - 1))
        if d_first >= elems:  # tiny stripes: no room for the long distance
            d_first = None
        if wl.block_bytes >= 4096:
            # §4.1.2: for blocks of 4 KB and up the hardware prefetcher
            # is kept fully engaged (it covers whole pages accurately);
            # the non-uniform BF distances are for the small-block
            # regime where XPLine-leading lines pay the media latency.
            d_first = None
        candidates: tuple = ()
        if d_first is not None and self.policy_probe is not None:
            # §4.3.2: the coordinator *adjusts* the buffer-friendly
            # distances — including backing off to uniform when the
            # split does not pay (narrow stripes with good locality).
            uniform = Policy(hw_prefetch=True, sw_distance=d)
            split = Policy(hw_prefetch=True, sw_distance=d,
                           bf_first_distance=d_first)
            candidates = (uniform, split)
            u_cost, s_cost = self.policy_probe(uniform), self.policy_probe(split)
            checks.append(ThresholdCheck("bf_split_pays", s_cost, u_cost,
                                         s_cost < u_cost))
            if u_cost <= s_cost:
                d_first = None
        # Low thread pressure: keep the streamer on regardless of
        # stripe width (wide stripes self-disable it; narrow stripes'
        # extra traffic is harmless) plus pipelined SW prefetch with
        # buffer-friendly distances.
        chosen = Policy(hw_prefetch=True, sw_distance=d,
                        bf_first_distance=d_first)
        if chosen not in candidates:
            candidates = candidates + (chosen,)
        return decide(chosen, candidates, climb)

    # -- runtime adaptation from sampled cache events ----------------------

    def observe(self, sample: Counters, throughput_gbps: float | None = None,
                now_ns: float | None = None) -> Policy:
        """Feed one counter-delta sample; returns the (possibly new) policy.

        ``sample`` is the delta since the previous sample (what a 1 kHz
        PMU reader hands the coordinator). ``now_ns`` stamps any policy
        switch on the tracer timeline; without it the sample index
        times the sampling period stands in.
        """
        self._samples_seen += 1
        if sample.loads == 0:
            return self.policy
        ts = (now_ns if now_ns is not None
              else self._samples_seen * SAMPLE_PERIOD_NS)
        avg_lat = sample.avg_load_latency_ns
        useless_per_load = sample.hwpf_useless / sample.loads
        if self.baseline_latency_ns is None:
            self.baseline_latency_ns = avg_lat
            self.baseline_useless_per_load = useless_per_load
        lat_limit = LATENCY_FACTOR * self.baseline_latency_ns
        contention = avg_lat > lat_limit
        ref = self.baseline_useless_per_load or 0.0
        if ref > 1e-6:
            useless_limit = USELESS_GROWTH_FACTOR * ref
        else:
            useless_limit = 0.05
        inefficient = useless_per_load > useless_limit
        checks = [ThresholdCheck("contention", avg_lat, lat_limit, contention),
                  ThresholdCheck("inefficient", useless_per_load,
                                 useless_limit, inefficient)]
        old, climb = self.policy, ()
        candidates = [self.policy]
        new = self.policy
        if self.policy.hw_prefetch and contention and inefficient:
            # Both signals firing means prefetch-driven buffer thrash:
            # switch to the full high-pressure strategy and remember
            # what we ran before so relief can restore it.
            self._saved_policy = self.policy
            new = self._high_pressure_policy()
            candidates.append(new)
        elif not self.policy.hw_prefetch and not contention \
                and self._saved_policy is not None:
            # Pressure relieved on a policy we switched dynamically.
            candidates.append(self._saved_policy)
            new = self._saved_policy
            self._saved_policy = None
        elif self.policy.hw_prefetch:
            # The high-pressure alternative was on the table but the
            # evidence kept the current policy.
            candidates.append(self._high_pressure_policy())
        elif self._saved_policy is not None:
            candidates.append(self._saved_policy)
        # Performance fluctuation retriggers the distance search.
        if throughput_gbps is not None and self._prev_throughput:
            swing = abs(throughput_gbps - self._prev_throughput) / self._prev_throughput
            fluctuated = swing > PERF_FLUCTUATION
            checks.append(ThresholdCheck("fluctuation", swing,
                                         PERF_FLUCTUATION, fluctuated))
            if fluctuated and self.probe is not None:
                lines = max(1, self.wl.block_bytes // 64)
                upper = max(2, min(lines * self.wl.k - 1, 8 * self.wl.k))
                d, climb = self._search_distance(
                    new.sw_distance or self.wl.k, upper)
                if d != new.sw_distance:
                    new = new.with_(sw_distance=d)
                    candidates.append(new)
        if throughput_gbps is not None:
            self._prev_throughput = throughput_gbps
        self.decision_log.append(DecisionEvidence(
            kind="observe", sample=self._samples_seen, now_ns=ts,
            delta=sample.nonzero_dict(), checks=tuple(checks),
            candidates=tuple(dict.fromkeys(candidates)), old=old,
            chosen=new, switched=new != old, climb=climb,
            throughput_gbps=throughput_gbps))
        if new != old:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event("coordinator.policy_switch", ts,
                             track="coordinator", sample=self._samples_seen,
                             old=old.describe(), new=new.describe(),
                             contention=contention,
                             inefficient=inefficient)
            self.policy = new
        return self.policy
