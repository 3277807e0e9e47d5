"""Parallel sweep execution and content-addressed memoization.

The ROADMAP's "fast as the hardware allows" goal applied to the repro
itself: a libraries × workloads grid fans out over a process pool
with results reassembled deterministically (:func:`run_sweep`; traced
sweeps run in-process), and :func:`repro.simulate` memoizes in memory
under sha256 content fingerprints (:class:`SimCache`).

Quickstart::

    from repro.parallel import SimCache, SweepSpec, run_sweep, sim_cache
    spec = SweepSpec(workloads=[Workload.rs(8, 4)], libraries=("ISA-L", "DIALGA"))
    with sim_cache(SimCache()) as memo:
        cold = run_sweep(spec)
        misses = memo.misses
        warm = run_sweep(spec)  # served from the memo
    assert cold == warm and memo.misses == misses

See ``docs/performance.md`` for the determinism guarantees and the
memo.
"""

from repro.parallel.cache import (
    SimCache,
    canonical,
    fingerprint,
    sim_cache,
    sim_key,
    trace_fingerprint,
)

# The sweep symbols resolve lazily (PEP 562): their module imports
# every coding library, and the simulator imports this package's cache
# to install its memo, so an eager import here would cycle.
_LAZY = {
    "SweepCell": "repro.parallel.sweep",
    "CellResult": "repro.parallel.sweep",
    "SweepSpec": "repro.parallel.sweep",
    "SweepResult": "repro.parallel.sweep",
    "run_sweep": "repro.parallel.sweep",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib
        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "SimCache",
    "canonical",
    "fingerprint",
    "sim_cache",
    "sim_key",
    "trace_fingerprint",
    "SweepCell",
    "CellResult",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
]
