"""Parallel sweep execution and content-addressed caching.

The ROADMAP's "fast as the hardware allows" goal applied to the repro
itself: a libraries × workloads grid fans out over a process pool
with results reassembled deterministically (:func:`run_sweep`; traced
sweeps run in-process), and pure (configuration → trace → simulation)
work memoizes in memory under sha256 content fingerprints
(:class:`ContentCache`).

Quickstart::

    from repro.parallel import SweepSpec, run_sweep, ContentCache
    spec = SweepSpec(workloads=[Workload.rs(8, 4)], libraries=("ISA-L", "DIALGA"))
    cold = run_sweep(spec, workers=4, cache=(cache := ContentCache()))
    warm = run_sweep(spec, workers=1, cache=cache)
    assert cold == warm  # bit-identical, near-free

See ``docs/performance.md`` for the determinism guarantees and the
cache.
"""

from repro.parallel.cache import (
    ContentCache,
    SimCache,
    canonical,
    fingerprint,
    install_sim_cache,
    sim_cache,
    sim_key,
    trace_fingerprint,
    uninstall_sim_cache,
)
from repro.parallel.sweep import (
    CellResult,
    SweepCell,
    SweepResult,
    SweepSpec,
    run_sweep,
)

__all__ = [
    "ContentCache",
    "SimCache",
    "canonical",
    "fingerprint",
    "install_sim_cache",
    "sim_cache",
    "sim_key",
    "trace_fingerprint",
    "uninstall_sim_cache",
    "SweepCell",
    "CellResult",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
]
