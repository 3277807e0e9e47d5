"""Content-addressed memoization of traces and simulation results.

Trace generation and simulation are pure functions of their inputs —
a workload, a library configuration, a :class:`HardwareConfig` — so
memoizing them is sound *by construction*: equal fingerprints imply
equal outputs, bit for bit. Keys are sha256 digests of a canonical
encoding of those inputs (exact float encoding, sorted keys, type
tags), so any change to any input — a prefetcher knob, a block size,
a DIALGA threshold — produces a different key and never a stale hit.
The store lives in one process, so no entry outlives the code that
made it.

Two layers use this module:

* :func:`repro.simulate` — a bounded :class:`SimCache`, installed at
  import in the ``_SIM_CACHE`` seam of :mod:`repro.simulator.multicore`,
  serves repeated (trace, hardware) simulations from memory;
  :func:`sim_cache` swaps it for the scope of a ``with`` (counterfactual
  replay, :mod:`repro.obs.replay`, uses a fresh one; timed code none);
* :func:`repro.parallel.run_sweep` — whole sweep cells
  (library × workload × hardware × policy) memoize their results;
  ``python -m repro.bench sweep`` times a warm pass.

Values are stored *pickled*, in memory. Storing bytes rather than
live objects means every :meth:`ContentCache.get` returns a fresh
object — callers may mutate results (merge counters, attach metadata)
without corrupting the cache.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from contextlib import contextmanager
from dataclasses import fields, is_dataclass

from repro.simulator import multicore as _multicore
from repro.trace.ops import Trace

# -- fingerprinting ------------------------------------------------------


def canonical(obj):
    """Canonical JSON-able form of a configuration value.

    Dataclasses become type-tagged field dicts, floats are encoded
    exactly (``float.hex``), dict keys are sorted. Two configurations
    canonicalize equal iff they would drive trace generation and
    simulation identically.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        out = {"__dc__": type(obj).__qualname__}
        for f in fields(obj):
            out[f.name] = canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {"__map__": sorted(
            (str(k), canonical(v)) for k, v in obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return {"__f__": obj.hex()}
    if isinstance(obj, bytes):
        return {"__b__": hashlib.sha256(obj).hexdigest()}
    if isinstance(obj, Trace):
        return {"__trace__": hashlib.sha256(obj.content_key()).hexdigest()}
    raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def fingerprint(obj) -> str:
    """sha256 hex digest of ``obj``'s canonical form."""
    blob = json.dumps(canonical(obj), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def trace_fingerprint(trace: Trace) -> str:
    """sha256 of a trace's exact content (ops + data volume)."""
    return hashlib.sha256(trace.content_key()).hexdigest()


def sim_key(traces, hw, batch_ops: int = 1,
            fastforward: bool = False) -> str:
    """Cache key for ``simulate(traces, hw, fastforward=fastforward)``.

    ``batch_ops`` is always 1: the scheduler no longer has that knob,
    but the parameter stays for callers that pass it positionally.

    Fast-forwarded results are byte-identical to interpreted ones, but
    the flag is keyed anyway: the cache must never be the mechanism
    that papers over an extrapolation bug, and the attached
    ``SimResult.fastforward`` stats differ between the two paths.
    """
    h = hashlib.sha256()
    h.update(f"sim:{fingerprint(hw)}:{batch_ops}:"
             f"{int(fastforward)}:{len(traces)}".encode())
    for t in traces:
        h.update(t.content_key())
    return h.hexdigest()


# -- the store -----------------------------------------------------------


class ContentCache:
    """Content-addressed pickle store, in memory."""

    def __init__(self):
        self._mem: dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._mem)

    def get(self, key: str):
        """Fetch a fresh copy of the value at ``key``, or None."""
        blob = self._mem.get(key)
        if blob is None:
            self.misses += 1
            return None
        self.hits += 1
        return pickle.loads(blob)

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` (overwrites)."""
        self._mem[key] = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    def stats(self) -> dict:
        """Hit/miss counts plus resident entry count."""
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._mem)}


# -- the simulate() memo ------------------------------------------------

#: Entries a :class:`SimCache` holds; past it the oldest is dropped.
#: The 24 figure and ablation ids, run in one process, leave 1,285
#: entries (about 1.1 MB pickled), so every repeat in them is served.
SIM_MEMO_SIZE = 2048


class SimCache(ContentCache):
    """Bounded (traces, hardware) -> :class:`SimResult` memo behind
    :func:`repro.simulate`'s ``_SIM_CACHE`` seam (in
    :mod:`repro.simulator.multicore`). Holds at most
    :data:`SIM_MEMO_SIZE` entries, evicting the oldest first."""

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key``, dropping the oldest entry if full."""
        if key not in self._mem and len(self._mem) >= SIM_MEMO_SIZE:
            del self._mem[next(iter(self._mem))]
        super().put(key, value)

    def simulate(self, traces, hw, fastforward: bool = False):
        """A cacheable :func:`repro.simulate` run: served from memory if
        seen before, else simulated and remembered."""
        key = sim_key(traces, hw, fastforward=fastforward)
        res = self.get(key)
        if res is None:
            res = _multicore._simulate(traces, hw, contexts=None, drain=True,
                                       fastforward=fastforward)
            self.put(key, res)
        return res


@contextmanager
def sim_cache(memo: SimCache | None):
    """Serve :func:`repro.simulate` from ``memo`` for the scope; ``None``
    turns memoization off (code that times ``simulate`` runs so).
    Restores the previous memo, by default the process-wide one, on
    exit; yields ``memo``."""
    previous = _multicore._SIM_CACHE
    _multicore._SIM_CACHE = memo
    try:
        yield memo
    finally:
        _multicore._SIM_CACHE = previous


# On by default: every cacheable simulation in the process shares it.
_multicore._SIM_CACHE = SimCache()
