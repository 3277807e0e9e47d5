"""Content-addressed memoization of traces and simulation results.

Trace generation and simulation are pure functions of their inputs —
a workload, a library configuration, a :class:`HardwareConfig` — so
memoizing them is sound *by construction*: equal fingerprints imply
equal outputs, bit for bit. Keys are sha256 digests of a canonical
encoding of those inputs (exact float encoding, sorted keys, type
tags), so any input that changes what is simulated — a prefetcher
knob, a block size, a DIALGA threshold — produces a different key and
never a stale hit. The store lives in one process, so no entry
outlives the code that made it.

:func:`repro.simulate` is served by a bounded :class:`SimCache`,
installed in the ``_SIM_CACHE`` seam of :mod:`repro.simulator.multicore`
when this module is imported (which importing :mod:`repro.simulator`
does); it serves repeated (trace, hardware) simulations from memory,
a re-run sweep's included. :func:`sim_cache` swaps it for the scope of
a ``with`` (counterfactual replay, :mod:`repro.obs.replay`, and
``python -m repro.bench sweep`` use memos of their own; timed code
none).

:func:`sim_key` hashes a run's exact trace content. The simulation
memo keys on :func:`rebased` traces instead: every LOAD/SWPF address
moved down by one common offset, a multiple of ``G = lcm(page, XPLine,
64 B)``, and every STORE address zeroed. Two runs with equal rebased
forms perform the same float operations in the same order, so one
result serves both:

* the core cache is keyed by line (``addr & ~63``), and a shift by a
  multiple of 64 B maps lines one to one;
* the streamer is keyed by page and works on in-page line offsets
  only; its prefetch targets never leave their page, so a shift by
  whole pages moves them with the page;
* the PM read buffer is keyed by ``addr // xpline_bytes``, which a
  shift by whole XPLines moves one to one;
* the bandwidth pipes, the store path and FENCE never read an
  address, so STORE addresses are dead;
* every LRU order follows the order of operations, not key values.

So an RS decode trace, which is its encode twin with every load moved
by ``erasures`` blocks (each block starts on its own page,
:mod:`repro.trace.layout`) and other store addresses, is served from
the encode's entry.

Values are stored *pickled*, in memory. Storing bytes rather than
live objects means every :meth:`SimCache.get` returns a fresh
object — callers may mutate results (merge counters, attach metadata)
without corrupting the cache.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
from array import array
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from functools import lru_cache

import numpy as np

from repro.simulator import multicore as _multicore
from repro.trace.ops import LOAD, STORE, SWPF, Trace

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
        return {"__trace__": trace_fingerprint(obj)}
    raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def fingerprint(obj) -> str:
    """sha256 hex digest of ``obj``'s canonical form."""
    blob = json.dumps(canonical(obj), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def trace_fingerprint(trace: Trace) -> str:
    """sha256 of a trace's exact content (ops + data volume)."""
    h = hashlib.sha256()
    trace.hash_into(h)
    return h.hexdigest()


#: fingerprint(hw) memoized by the frozen config; equal configs share
#: one (``300`` where another holds ``300.0`` included).
_hw_fingerprint = lru_cache(maxsize=64)(fingerprint)


def sim_key(traces, hw, batch_ops: int = 1,
            fastforward: bool = False) -> str:
    """Cache key for ``simulate(traces, hw, fastforward=fastforward)``
    over the traces' exact content.

    Equal keys mean equal traces, op for op. The simulation memo
    passes :func:`rebased` traces here, so it also serves runs that
    differ only in where their pages lie (see the module docstring).

    ``batch_ops`` is always 1: the scheduler no longer has that knob,
    but the parameter stays for callers that pass it positionally.

    Fast-forwarded results are byte-identical to interpreted ones, but
    the flag is keyed anyway: the cache must never be the mechanism
    that papers over an extrapolation bug, and the attached
    ``SimResult.fastforward`` stats differ between the two paths.
    """
    h = hashlib.sha256()
    h.update(f"sim:{_hw_fingerprint(hw)}:{batch_ops}:"
             f"{int(fastforward)}:{len(traces)}".encode())
    for t in traces:
        t.hash_into(h)
    return h.hexdigest()


def rebased(traces, hw) -> list[Trace]:
    """The traces as the simulation memo keys them.

    Every LOAD/SWPF address drops by one common offset: the lowest
    such address over all ``traces``, floored to a multiple of
    ``lcm(page_bytes, xpline_bytes, 64)`` (0 if any is negative). Every
    STORE address becomes 0. Opcodes, COMPUTE/FENCE args and
    ``data_bytes`` stay. Simulating the result on ``hw`` is
    bit-identical to simulating ``traces`` (module docstring); the
    float subtractions are exact, since addresses are integers below
    2**53. The rebased traces share their opcode arrays with
    ``traces``.
    """
    grain = math.lcm(hw.prefetcher.page_bytes, hw.pm.xpline_bytes, 64)
    cols = []
    low = math.inf
    for t in traces:
        ops = np.frombuffer(t.opcodes, np.uint8)
        args = np.frombuffer(t.args, np.float64)
        addr = (ops == LOAD) | (ops == SWPF)
        if addr.any():
            low = min(low, float(args[addr].min()))
        cols.append((ops, args, addr))
    offset = int(low) // grain * grain if 0 <= low < math.inf else 0
    out = []
    for t, (ops, args, addr) in zip(traces, cols):
        args = args.copy()
        args[addr] -= offset
        args[ops == STORE] = 0.0
        canon = Trace(data_bytes=t.data_bytes)
        canon.opcodes = t.opcodes
        canon.args = array("d", args.tobytes())
        out.append(canon)
    return out


# -- the simulate() memo ------------------------------------------------

#: Entries a :class:`SimCache` holds; past it the oldest is dropped.
#: The 24 figure and ablation ids, run in one process, leave 1,160
#: entries (about 1.0 MB pickled), so every repeat in them is served.
SIM_MEMO_SIZE = 2048


class SimCache:
    """Bounded (traces, hardware) -> :class:`SimResult` memo behind
    :func:`repro.simulate`'s ``_SIM_CACHE`` seam (in
    :mod:`repro.simulator.multicore`), keyed on the :func:`rebased`
    traces. A pickle store in memory: holds at most
    :data:`SIM_MEMO_SIZE` entries, evicting the oldest first."""

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
        """Store ``value`` under ``key``, dropping the oldest entry if full."""
        if key not in self._mem and len(self._mem) >= SIM_MEMO_SIZE:
            del self._mem[next(iter(self._mem))]
        self._mem[key] = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    def stats(self) -> dict:
        """Hit/miss counts plus resident entry count."""
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._mem)}

    def simulate(self, traces, hw, fastforward: bool = False):
        """A cacheable :func:`repro.simulate` run: served from memory if
        seen before (up to a page rebase, :func:`rebased`), else
        simulated and remembered."""
        key = sim_key(rebased(traces, hw), hw, fastforward=fastforward)
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
