"""DIALGA's public encoder — the paper's system, end to end.

``DialgaEncoder`` implements the same :class:`~repro.libs.base.
CodingLibrary` interface as the baselines, so benchmarks treat it
uniformly. Functionally it *is* ISA-L (table-lookup RS — DIALGA is
"implemented within ISA-L", §1); the difference is the performance
path: the adaptive coordinator picks a kernel entry point (policy) from
the I/O pattern, hill-climbs the software-prefetch distance on a probe,
and re-decides between chunks from sampled counters.

Tuning knobs live in one keyword-only :class:`DialgaConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codes.rs import RSCode
from repro.core.coordinator import SAMPLE_PERIOD_NS, AdaptiveCoordinator
from repro.core.policy import Policy
from repro.libs.base import CodingLibrary, GeometryMismatch, LibraryResult
from repro.obs import get_tracer
from repro.simulator import HardwareConfig, SimResult, simulate
from repro.simulator.counters import CounterSampler
from repro.simulator.multicore import make_contexts
from repro.trace import Trace, Workload, isal_trace


@dataclass(frozen=True, kw_only=True)
class DialgaConfig:
    """:class:`DialgaEncoder`'s tuning knobs (keyword-only).

    Attributes
    ----------
    chunks:
        How many chunks the job is split into for adaptation/sampling.
    use_probe:
        Hill-climb the software-prefetch distance on a small simulated
        probe before starting (§4.1.2, on by default as in the paper).
        Disable to pin d = k.
    """

    chunks: int = 6
    use_probe: bool = True


class DialgaEncoder(CodingLibrary):
    """Adaptive prefetcher-scheduled erasure coding on PM.

    Parameters
    ----------
    k, m:
        Code geometry.
    config:
        Keyword-only :class:`DialgaConfig` with every tuning knob.
    """

    name = "DIALGA"
    supports_policy = True

    def __init__(self, k: int, m: int, *,
                 config: DialgaConfig | None = None):
        self.config = config or DialgaConfig()
        self.code = RSCode(k, m)
        self.k, self.m = k, m
        #: Policies applied per chunk in the last run (observability).
        self.policy_log: list[Policy] = []
        #: Coordinator of the last adaptive run (None before any run or
        #: after a pinned run) — exposes its decisions to the service
        #: layer and the decision ledger.
        self.last_coordinator: AdaptiveCoordinator | None = None

    # -- read-only views of config -----------------------------------------

    @property
    def chunks(self) -> int:
        """Adaptation chunk count (from config, at least 1)."""
        return max(1, self.config.chunks)

    @property
    def use_probe(self) -> bool:
        """Whether the hill-climbing probe is enabled (from config)."""
        return self.config.use_probe

    @property
    def policy_switches(self) -> int:
        """Dynamic policy switches in the last adaptive run (0 when the
        run was pinned) — service-layer observability."""
        return self.last_coordinator.switches if self.last_coordinator else 0

    # -- functional (bit-exact ISA-L RS) ----------------------------------

    def encode(self, data: np.ndarray) -> np.ndarray:
        """One-pass RS parity (identical bytes to ISA-L)."""
        return self.code.encode_blocks(data)

    def decode(self, available, erased):
        """RS decode via survivor-matrix inversion."""
        return self.code.decode(available, erased)

    # -- performance model --------------------------------------------------

    def _make_probe(self, wl: Workload, hw: HardwareConfig):
        """Probe objective for hill climbing: simulated ns/byte of a
        short single-thread run at distance d (the paper's 128 B
        sub-task latency target)."""
        probe_wl = wl.with_(nthreads=1,
                            data_bytes_per_thread=4 * wl.stripe_data_bytes)

        def policy_objective(policy: Policy) -> float:
            trace = isal_trace(probe_wl, hw.cpu, policy.to_variant())
            res = simulate([trace], hw)
            return res.makespan_ns / max(1, trace.data_bytes)

        def objective(d: int) -> float:
            return policy_objective(Policy(hw_prefetch=True, sw_distance=d))

        return objective, policy_objective

    def coordinator_for(self, wl: Workload, hw: HardwareConfig) -> AdaptiveCoordinator:
        """Build the coordinator (exposed for tests/examples)."""
        probe = policy_probe = None
        if self.use_probe:
            probe, policy_probe = self._make_probe(wl, hw)
        return AdaptiveCoordinator(wl, hw, probe=probe,
                                   policy_probe=policy_probe)

    def trace(self, wl: Workload, hw: HardwareConfig, thread: int,
              policy: Policy | None = None) -> Trace:
        """One thread's trace under ``policy`` (default: initial policy)."""
        if policy is None:
            policy = AdaptiveCoordinator(wl, hw).policy
        return isal_trace(wl, hw.cpu, policy.to_variant(), thread=thread)

    def run(self, workload: Workload,
            hardware: HardwareConfig | None = None, *,
            policy: Policy | None = None) -> LibraryResult:
        """Simulate the workload with the full adaptive pipeline.

        ``policy`` pins a scheduling policy for the whole run (no
        coordinator, no adaptation) — the ablation variants use it.
        """
        hw = hardware or HardwareConfig()
        wl = self.effective_workload(workload)
        hw = hw.with_cpu(simd=wl.simd)
        if wl.k != self.k or wl.m != self.m:
            raise GeometryMismatch(
                f"workload geometry ({wl.k},{wl.m}) != encoder ({self.k},{self.m})")
        self.policy_log = []
        self.last_coordinator = None
        if policy is not None:
            self.policy_log.append(policy)
            traces = [self.trace(wl, hw, t, policy=policy)
                      for t in range(wl.nthreads)]
            sim = simulate(traces, hw)
            return LibraryResult(self.name, wl, sim)
        return LibraryResult(self.name, wl, self._run_adaptive(wl, hw))

    def _calibrate_baseline(self, coord: AdaptiveCoordinator,
                            wl: Workload, hw: HardwareConfig) -> None:
        """Measure the low-pressure reference the thresholds compare
        against (the paper calibrates '110% of the average latency under
        low pressure'): a short single-thread run of the low-pressure
        kernel."""
        lp_wl = wl.with_(nthreads=1,
                         data_bytes_per_thread=3 * wl.stripe_data_bytes)
        lp_policy = AdaptiveCoordinator(lp_wl, hw).policy
        trace = isal_trace(lp_wl, hw.cpu, lp_policy.to_variant())
        res = simulate([trace], hw)
        coord.set_baseline(res.counters)

    def _run_adaptive(self, wl: Workload, hw: HardwareConfig) -> SimResult:
        """Chunked execution: simulate, sample counters, re-decide."""
        tracer = get_tracer()
        with tracer.sequenced(0.0):
            run_span = tracer.begin("dialga.run", 0.0, k=self.k, m=self.m,
                                    nthreads=wl.nthreads,
                                    block_bytes=wl.block_bytes)
            result = self._run_adaptive_chunks(wl, hw, tracer)
            tracer.end(run_span, result.makespan_ns,
                       data_bytes=result.data_bytes,
                       switches=self.policy_switches)
        return result

    def _run_adaptive_chunks(self, wl: Workload, hw: HardwareConfig,
                             tracer) -> SimResult:
        coord = self.coordinator_for(wl, hw)
        self.last_coordinator = coord
        if wl.nthreads > 1:
            self._calibrate_baseline(coord, wl, hw)
        contexts = make_contexts(hw, [None] * wl.nthreads)
        total_stripes = wl.stripes_per_thread
        per_chunk = max(1, total_stripes // self.chunks)
        # The replayer's default counterfactual window: one adaptation
        # chunk, exactly what each decision governed.
        coord.window_stripes = per_chunk
        done = 0
        # The chunk loop is the paper's PMU sampler: one delta per
        # chunk boundary, handed to the coordinator and attached to
        # the chunk's phase span.
        sampler = CounterSampler(contexts[0].counters,
                                 period_ns=SAMPLE_PERIOD_NS)
        last_makespan = 0.0
        chunk_idx = 0
        while done < total_stripes:
            n = min(per_chunk, total_stripes - done)
            policy = coord.policy
            self.policy_log.append(policy)
            chunk_span = None
            if tracer.enabled:
                chunk_span = tracer.begin("sim.chunk", last_makespan,
                                          chunk=chunk_idx, stripes=n,
                                          policy=policy.describe())
            chunk_wl = wl.with_(data_bytes_per_thread=n * wl.stripe_data_bytes)
            for t, ctx in enumerate(contexts):
                ctx.trace.extend(isal_trace(chunk_wl, hw.cpu,
                                            policy.to_variant(), thread=t,
                                            stripe_offset=done))
            done += n
            res = simulate([], hw, contexts=contexts,
                           drain=done >= total_stripes)
            delta = sampler.sample_now(res.makespan_ns)
            chunk_ns = res.makespan_ns - last_makespan
            chunk_tput = (n * wl.stripe_data_bytes * wl.nthreads
                          / chunk_ns) if chunk_ns > 0 else None
            last_makespan = res.makespan_ns
            if chunk_span is not None:
                tracer.end(chunk_span, res.makespan_ns,
                           throughput_gbps=chunk_tput,
                           **delta.nonzero_dict("d_"))
            coord.observe(delta, throughput_gbps=chunk_tput,
                          now_ns=res.makespan_ns)
            chunk_idx += 1
        return res
