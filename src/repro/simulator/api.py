"""The unified simulation entry point: :func:`simulate`.

Pre-1.2 there were three overlapping ways to run a trace — a
single-thread helper on private backends, the multicore runner in
:mod:`repro.simulator.multicore`, and per-library ad-hoc loops. This
facade subsumes all of them:

* ``simulate(trace, hw)`` — one trace, one thread;
* ``simulate([t0, t1], hw)`` — one trace per thread over shared memory;
* ``simulate(trace, hw, threads=4)`` — the same op stream replicated on
  4 cores (each context keeps its own program counter);
* ``simulate(..., tracer=tr)`` — install ``tr`` for the duration of the
  run instead of the ambient tracer.

It is also the single seam where the content-addressed result cache
(:mod:`repro.parallel.cache`) hooks in: when a cache is installed and
the run is cacheable (fresh contexts, full drain, tracing disabled),
a repeated (trace, hardware) simulation is served from memory without
re-executing — bit-identically, because simulation is a pure function
of those inputs.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs import get_tracer, use_tracer
from repro.simulator.multicore import SimResult, simulate as _simulate_raw
from repro.simulator.params import HardwareConfig
from repro.trace.ops import Trace

#: Content-addressed (trace, hardware) -> SimResult cache, installed by
#: :func:`repro.parallel.cache.install_sim_cache`. ``None`` disables
#: memoization (the default).
_SIM_CACHE = None


def simulate(trace, hardware: HardwareConfig | None = None, *,
             threads: int | None = None,
             tracer=None,
             contexts=None,
             drain: bool = True,
             fastforward: bool | None = None) -> SimResult:
    """Simulate one or more traces against a hardware configuration.

    Parameters
    ----------
    trace:
        A single :class:`~repro.trace.ops.Trace` or a sequence of them
        (one per thread). May be empty only when ``contexts`` resumes a
        previous run.
    hardware:
        Testbed description; defaults to the paper's platform
        (``HardwareConfig()``).
    threads:
        Thread count. Defaults to the number of traces given. With a
        single trace and ``threads=N``, the same op stream runs on N
        cores (each context has a private program counter and core
        state; memory backends are shared).
    tracer:
        Optional :class:`repro.obs.Tracer` installed for the duration
        of this call (otherwise the ambient tracer applies).
    contexts:
        Pre-built :class:`~repro.simulator.engine.ThreadContext` list —
        advanced use: the DIALGA coordinator re-enters the simulator
        with live contexts between chunks. Never served from cache.
    drain:
        Flush core caches at the end (pass False for intermediate
        chunks of a longer run).
    fastforward:
        Skip steady-state stripe periods by exact extrapolation
        (:mod:`repro.simulator.fastforward`); results are byte-
        identical to plain interpretation, just faster on long
        periodic traces. Default (None) enables it exactly for
        single-thread runs on fresh contexts — under multicore
        contention the shared backends couple the threads and the
        per-thread periodicity dissolves, so it is off there.

    Returns
    -------
    SimResult
        Makespan, per-thread times, aggregate counters, data volume.
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
    if threads is not None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        if len(traces) == 1 and threads > 1:
            traces = traces * threads
        elif traces and threads != len(traces):
            raise ValueError(
                f"threads={threads} but {len(traces)} traces given")
    if not traces and contexts is None:
        raise ValueError("need at least one trace (or live contexts)")
    if fastforward is None:
        fastforward = len(traces) == 1 and contexts is None

    if tracer is not None:
        with use_tracer(tracer):
            return _dispatch(traces, hardware, contexts, drain, fastforward)
    return _dispatch(traces, hardware, contexts, drain, fastforward)


def _dispatch(traces, hardware, contexts, drain, fastforward) -> SimResult:
    cache = _SIM_CACHE
    if (cache is not None and contexts is None and drain
            and not get_tracer().enabled):
        return cache.simulate(traces, hardware, fastforward=fastforward)
    return _simulate_raw(traces, hardware, contexts=contexts, drain=drain,
                         fastforward=fastforward)
