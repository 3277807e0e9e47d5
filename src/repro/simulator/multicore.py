"""The simulation entry point, :func:`simulate`: 1..N thread traces,
interleaved over shared PM.

Threads run on private cores (own cache + streamer) but share the
memory backends — bandwidth pipes and, crucially, the PM read buffer.
The engine's interpreter, :func:`~repro.simulator.engine.interpret`,
runs all of a simulation's threads in one call: it always advances the
thread with the smallest ``(clock, index)`` (a conservative event
ordering), so cross-thread interactions through the shared state
happen in causal order, and it switches threads inside its loop, at
the clock where another thread becomes the earliest. This is where
Obs. 5's read-buffer thrashing and the scalability plateaus of
Fig. 7/13 come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import get_tracer
from repro.simulator.counters import Counters
from repro.simulator.engine import ThreadContext, interpret
from repro.simulator.memory import DRAMBackend, PMBackend
from repro.simulator.params import HardwareConfig
from repro.trace.ops import Trace

#: Content-addressed (trace, hardware) -> SimResult memo. Importing
#: :mod:`repro` installs a bounded :class:`repro.parallel.cache.SimCache`
#: here; :func:`repro.parallel.cache.sim_cache` swaps it for a scope
#: (``None`` turns memoization off).
_SIM_CACHE = None


@dataclass
class SimResult:
    """Outcome of a (possibly multi-thread) simulation.

    Attributes
    ----------
    makespan_ns:
        Finish time of the slowest thread.
    thread_times_ns:
        Per-thread finish times.
    counters:
        Aggregate counters across all threads (shared-memory events —
        buffer, media traffic — are inherently global).
    data_bytes:
        Total application data processed (all threads).
    """

    makespan_ns: float
    thread_times_ns: list[float]
    counters: Counters
    data_bytes: int = 0
    #: Steady-state fast-forward stats (``engaged``, ``periods_skipped``,
    #: ...) when the run went through :mod:`repro.simulator.fastforward`;
    #: None otherwise. Excluded from equality: fast-forwarded results
    #: are byte-identical to interpreted ones and must compare equal.
    fastforward: dict | None = field(default=None, compare=False,
                                     repr=False)

    @property
    def throughput_gbps(self) -> float:
        """Aggregate data throughput in GB/s (bytes/ns)."""
        return self.data_bytes / self.makespan_ns if self.makespan_ns else 0.0


def make_backends(hw: HardwareConfig, counters: Counters):
    """Build the (shared) load/store backends for a run."""
    backends = {}

    def backend_for(kind: str):
        if kind not in backends:
            backends[kind] = (
                PMBackend(hw.pm, counters) if kind == "pm"
                else DRAMBackend(hw.dram, counters)
            )
        return backends[kind]

    return backend_for(hw.load_source), backend_for(hw.store_target)


def make_contexts(hw: HardwareConfig, traces) -> list[ThreadContext]:
    """Fresh thread contexts, one per trace (None for an empty one),
    over one shared set of counters and memory backends."""
    counters = Counters()
    load_b, store_b = make_backends(hw, counters)
    return [ThreadContext(hw, counters, load_b, store_b, trace=t)
            for t in traces]


def simulate(trace, hardware: HardwareConfig | None = None, *,
             contexts: list[ThreadContext] | None = None,
             drain: bool = True,
             fastforward: bool | None = None) -> SimResult:
    """Simulate one or more traces against a hardware configuration.

    This is the one simulation entry point, and the seam where the
    content-addressed result memo (:mod:`repro.parallel.cache`) hooks
    in: while the memo is on (the default) and the run is cacheable
    (fresh contexts, full drain, tracing disabled), a repeated (trace,
    hardware) simulation is served from memory without re-executing —
    bit-identically, because simulation is a pure function of those
    inputs.

    Parameters
    ----------
    trace:
        A single :class:`~repro.trace.ops.Trace` or a sequence of them
        (one per thread, over shared memory). May be empty only when
        ``contexts`` resumes a previous run.
    hardware:
        Testbed description; defaults to the paper's platform
        (``HardwareConfig()``).
    contexts:
        Live :class:`~repro.simulator.engine.ThreadContext` list to
        resume (advanced use: the DIALGA coordinator re-enters the
        simulator between chunks). Never served from cache.
    drain:
        Flush core caches at the end, accounting still-resident unused
        prefetches as useless. Pass False for intermediate chunks of a
        longer run (the caches stay warm across re-entries).
    fastforward:
        Skip steady-state stripe periods by exact extrapolation
        (:mod:`repro.simulator.fastforward`); results are byte-
        identical to plain interpretation, the stats land on
        ``SimResult.fastforward``. Default (None) enables it exactly
        for single-thread runs on fresh contexts. It only takes effect
        when a single thread is live — under multicore contention the
        shared backends couple the threads and the per-thread
        periodicity dissolves.
    """
    if hardware is None:
        hardware = HardwareConfig()
    if isinstance(trace, Trace):
        traces = [trace]
    elif trace is None:
        traces = []
    else:
        traces = list(trace)
        for t in traces:
            if not isinstance(t, Trace):
                raise TypeError(f"expected Trace, got {type(t).__name__}")
    if not traces and not contexts:
        raise ValueError("need at least one trace (or live contexts)")
    if fastforward is None:
        fastforward = len(traces) == 1 and contexts is None
    cache = _SIM_CACHE
    if (cache is not None and contexts is None and drain
            and not get_tracer().enabled):
        return cache.simulate(traces, hardware, fastforward=fastforward)
    return _simulate(traces, hardware, contexts, drain, fastforward)


def _simulate(traces: list[Trace], hw: HardwareConfig,
              contexts: list[ThreadContext] | None, drain: bool,
              fastforward: bool) -> SimResult:
    """:func:`simulate`'s uncached body (the cache calls it on a miss)."""
    if contexts is None:
        contexts = make_contexts(hw, traces)
    else:
        _check_shared(contexts)
    counters = contexts[0].counters
    tracer = get_tracer()
    if not tracer.enabled:
        return _run(contexts, counters, drain, fastforward)
    t0 = min(ctx.clock for ctx in contexts)
    before = counters.snapshot()
    with tracer.sequenced(t0):
        span = tracer.begin("sim.run", t0, threads=len(contexts),
                            drain=drain)
        result = _run(contexts, counters, drain, fastforward)
        tracer.end(span, result.makespan_ns,
                   data_bytes=result.data_bytes,
                   **counters.delta(before).nonzero_dict("d_"))
    return result


def _check_shared(contexts: list[ThreadContext]) -> None:
    """Raise ValueError unless the contexts share one ``Counters``, one
    load/store backend pair and one ``HardwareConfig``, as one
    :func:`make_contexts` call builds them: the interpreter takes all
    of those from ``contexts[0]``."""
    first = contexts[0]
    for ctx in contexts[1:]:
        if (ctx.counters is not first.counters
                or ctx.load_backend is not first.load_backend
                or ctx.store_backend is not first.store_backend
                or ctx.hw != first.hw):
            raise ValueError(
                "contexts must share one Counters, one load/store backend "
                "pair and one HardwareConfig (build them with one "
                "make_contexts call)")


def _run(contexts: list[ThreadContext], counters: Counters,
         drain: bool, fastforward: bool) -> SimResult:
    """Run the contexts to the end of their traces (tracing handled by
    the caller)."""
    ff_stats = None
    live = [ctx for ctx in contexts if not ctx.done]
    if fastforward and len(live) == 1:
        # One live thread: no cross-thread interleaving to arbitrate,
        # so steady-state stripe periods can be skipped by exact
        # extrapolation.
        from repro.simulator.fastforward import run_fastforward
        ff_stats = run_fastforward(live[0])
    else:
        interpret(contexts)
    if drain:
        for ctx in contexts:
            ctx.cache.drain()
    times = [ctx.clock for ctx in contexts]
    data = sum(ctx.trace.data_bytes for ctx in contexts)
    return SimResult(
        makespan_ns=max(times),
        thread_times_ns=times,
        counters=counters,
        data_bytes=data,
        fastforward=ff_stats,
    )
