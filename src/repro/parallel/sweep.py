"""Deterministic parallel sweep execution.

A sweep is a grid of **cells** — (library × workload × hardware ×
policy) points — each an independent, deterministic unit of work:
rebuild the library from its constructor inputs, generate its traces,
simulate. :func:`run_sweep` fans cells out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and reassembles
results **by cell index**, so the merged result — per-cell numbers and
the aggregate :class:`Counters` fold — is byte-identical to a serial
run regardless of worker count or completion order. The determinism
suite pins this property.

With a :class:`~repro.parallel.cache.ContentCache`, finished cells are
memoized under a sha256 fingerprint of their full configuration; a
warm sweep re-runs nothing and changes nothing.

When an :mod:`repro.obs` tracer is installed, parallel workers record
onto private tracers and the parent splices the payloads onto its own
timeline in cell order (:meth:`~repro.obs.Tracer.absorb`), so the
merged trace is deterministic too.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.libs.base import UnsupportedWorkload
from repro.obs import Tracer, get_tracer, use_tracer
from repro.parallel.cache import ContentCache, code_digest, fingerprint
from repro.simulator import HardwareConfig
from repro.simulator.counters import Counters
from repro.trace import Workload


def _freeze_kwargs(kwargs: dict | None) -> tuple:
    """Normalize a kwargs dict to a sorted, hashable pairs tuple."""
    if not kwargs:
        return ()
    return tuple(sorted(kwargs.items()))


@dataclass(frozen=True)
class SweepCell:
    """One grid point: everything needed to rebuild and run it.

    The library is named, not instantiated — cells travel to worker
    processes and into cache fingerprints, so they carry constructor
    inputs rather than live objects.
    """

    library: str
    workload: Workload
    hardware: HardwareConfig
    policy: object | None = None
    #: Constructor kwargs for the library (e.g. DialgaConfig fields),
    #: as sorted (name, value) pairs.
    library_kwargs: tuple = ()

    def key(self) -> str:
        """Content-addressed cache key for this cell's result."""
        return f"cell:{code_digest()}:{fingerprint(self)}"


@dataclass
class CellResult:
    """Outcome of one cell (unsupported cells carry ``supported=False``)."""

    index: int
    library: str
    workload: Workload
    supported: bool
    throughput_gbps: float | None = None
    makespan_ns: float | None = None
    data_bytes: int = 0
    counters: Counters | None = None
    error: str | None = None
    #: Served from cache (bookkeeping; not part of result identity).
    cached: bool = field(default=False, compare=False)
    #: Worker tracer payload awaiting absorption (never compared).
    tracer_payload: dict | None = field(default=None, compare=False,
                                        repr=False)


@dataclass(frozen=True)
class SweepSpec:
    """A sweep grid. Axes iterate in the declared order; the cell list
    (and therefore every merged result) is a pure function of the spec.

    Accepts lists for any axis; they are normalized to tuples. The
    paper's comparison set is the default library axis.
    """

    libraries: tuple = ("ISA-L", "ISA-L-D", "Zerasure", "Cerasure", "DIALGA")
    workloads: tuple = ()
    hardware: tuple = ()
    policies: tuple = (None,)
    #: Per-library constructor kwargs, e.g. ``{"DIALGA": {...}}``.
    library_kwargs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "libraries", tuple(self.libraries))
        object.__setattr__(self, "workloads", tuple(self.workloads))
        hw = self.hardware
        if isinstance(hw, HardwareConfig):
            hw = (hw,)
        object.__setattr__(self, "hardware",
                           tuple(hw) if hw else (HardwareConfig(),))
        object.__setattr__(self, "policies", tuple(self.policies) or (None,))
        lk = self.library_kwargs
        if isinstance(lk, dict):
            lk = tuple(sorted(
                (name, _freeze_kwargs(kw)) for name, kw in lk.items()))
        object.__setattr__(self, "library_kwargs", tuple(lk))
        if not self.workloads:
            raise ValueError("a sweep needs at least one workload")

    def kwargs_for(self, library: str) -> tuple:
        for name, kw in self.library_kwargs:
            if name == library:
                return kw
        return ()

    def cells(self) -> list[SweepCell]:
        """The grid in its canonical (stable) order:
        workload-major, then hardware, then library, then policy."""
        return [
            SweepCell(lib, wl, hw, pol, self.kwargs_for(lib))
            for wl in self.workloads
            for hw in self.hardware
            for lib in self.libraries
            for pol in self.policies
        ]

    def __len__(self) -> int:
        return (len(self.workloads) * len(self.hardware)
                * len(self.libraries) * len(self.policies))


@dataclass
class SweepResult:
    """All cell results (in cell order) plus the aggregate counter fold.

    Equality covers the *results* — two sweeps over the same spec
    compare equal iff every cell number and every merged counter is
    identical, which is how the determinism suite asserts serial ≡
    parallel ≡ warm-cache. Wall-clock and scheduling metadata never
    participate.
    """

    results: list[CellResult]
    counters: Counters
    workers: int = field(default=1, compare=False)
    wall_s: float = field(default=0.0, compare=False)
    cache_stats: dict | None = field(default=None, compare=False)
    #: Worker-death / timeout accounting from the hardened executor:
    #: ``{"pool_restarts", "resubmitted_cells", "timed_out_cells",
    #: "abandoned_cells"}`` (None for serial / fault-free runs).
    fault_stats: dict | None = field(default=None, compare=False)

    def __getitem__(self, i: int) -> CellResult:
        return self.results[i]

    def __len__(self) -> int:
        return len(self.results)

    def by_library(self) -> dict[str, list[CellResult]]:
        """Cell results grouped by library, cell order preserved."""
        out: dict[str, list[CellResult]] = {}
        for r in self.results:
            out.setdefault(r.library, []).append(r)
        return out

    def to_dict(self) -> dict:
        """Deterministic JSON-able payload (no timing/scheduling data)."""
        return {
            "cells": [
                {
                    "index": r.index,
                    "library": r.library,
                    "k": r.workload.k,
                    "m": r.workload.m,
                    "block_bytes": r.workload.block_bytes,
                    "nthreads": r.workload.nthreads,
                    "op": r.workload.op,
                    "supported": r.supported,
                    "throughput_gbps": r.throughput_gbps,
                    "makespan_ns": r.makespan_ns,
                    "data_bytes": r.data_bytes,
                    "error": r.error,
                }
                for r in self.results
            ],
            "counters": self.counters.nonzero_dict(),
        }


def _build_library(cell: SweepCell):
    from repro.bench.runner import standard_libraries
    kw = dict(cell.library_kwargs)
    wl = cell.workload
    if cell.library == "DIALGA":
        return standard_libraries(wl.k, wl.m, include=("DIALGA",),
                                  dialga_kwargs=kw)[0]
    if kw:
        raise ValueError(
            f"library_kwargs not supported for {cell.library!r}")
    return standard_libraries(wl.k, wl.m, include=(cell.library,))[0]


def _run_cell(index: int, cell: SweepCell) -> CellResult:
    """Execute one cell from scratch (library rebuild + trace + sim)."""
    try:
        lib = _build_library(cell)
        out = lib.run(cell.workload, cell.hardware, policy=cell.policy)
    except UnsupportedWorkload:
        return CellResult(index, cell.library, cell.workload,
                          supported=False)
    except Exception as exc:  # defensive: one bad cell must not kill a sweep
        return CellResult(index, cell.library, cell.workload,
                          supported=True,
                          error=f"{type(exc).__name__}: {exc}")
    sim = out.sim
    return CellResult(index, cell.library, out.workload, supported=True,
                      throughput_gbps=sim.throughput_gbps,
                      makespan_ns=sim.makespan_ns,
                      data_bytes=sim.data_bytes,
                      counters=sim.counters)


def _exec_cell(payload) -> CellResult:
    """Worker entry: optionally record onto a private tracer."""
    index, cell, want_trace = payload
    _maybe_poison(index)
    if not want_trace:
        return _run_cell(index, cell)
    tracer = Tracer(f"sweep[{index}]")
    with use_tracer(tracer):
        result = _run_cell(index, cell)
    result.tracer_payload = tracer.export_payload()
    return result


def _maybe_poison(index: int) -> None:
    """Worker-death test hook: ``REPRO_SWEEP_POISON=<index>[:<flag>]``
    hard-kills the worker assigned that cell. With a flag path the kill
    fires only while the file is absent (it is created first), so the
    resubmitted attempt survives; without one, every attempt dies —
    the budget-exhaustion case. Only the fault-tolerance tests set it.
    """
    spec = os.environ.get("REPRO_SWEEP_POISON")
    if not spec:
        return
    target, _, flag = spec.partition(":")
    if index != int(target):
        return
    if flag:
        if os.path.exists(flag):
            return
        with open(flag, "w"):
            pass
    os._exit(1)


def _pool_round(todo: list, workers: int, cell_timeout_s: float | None,
                stats: dict) -> tuple[dict, list]:
    """One process-pool round over ``todo`` payloads.

    Returns ``(done, lost)``: results by cell index, plus payloads
    whose worker died (``BrokenProcessPool``) before finishing — the
    caller decides whether to resubmit those. Cells that exceed the
    per-cell timeout are *not* retried (a deterministic cell that hung
    once will hang again); they come back as error results.
    """
    done: dict[int, CellResult] = {}
    lost: list = []
    broken = hung = False
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = [(p, pool.submit(_exec_cell, p)) for p in todo]
        for payload, fut in futures:
            index, cell = payload[0], payload[1]
            if broken:
                # The pool already died; salvage whatever finished.
                if (fut.done() and not fut.cancelled()
                        and fut.exception() is None):
                    done[index] = fut.result()
                else:
                    lost.append(payload)
                continue
            try:
                done[index] = fut.result(timeout=cell_timeout_s)
            except FutureTimeout:
                stats["timed_out_cells"] += 1
                fut.cancel()
                hung = True
                done[index] = CellResult(
                    index, cell.library, cell.workload, supported=True,
                    error=f"timeout: cell exceeded {cell_timeout_s:g}s")
            except BrokenProcessPool:
                broken = True
                stats["pool_restarts"] += 1
                lost.append(payload)
    finally:
        # Never block shutdown on a dead pool or a still-hung cell.
        pool.shutdown(wait=not (broken or hung), cancel_futures=True)
    return done, lost


def run_sweep(spec: SweepSpec, workers: int = 1,
              cache: ContentCache | bool | None = None, *,
              cell_timeout_s: float | None = None,
              max_resubmits: int = 2) -> SweepResult:
    """Run every cell of ``spec``; results are independent of ``workers``.

    Parameters
    ----------
    spec:
        The grid.
    workers:
        Process count. 1 runs in-process; N > 1 fans uncached cells
        out over a process pool. Output is byte-identical either way:
        cells are reassembled in grid order before any merging.
    cache:
        ``None`` — no memoization. ``True`` — a fresh in-memory
        :class:`ContentCache`. A :class:`ContentCache` — use it (pass
        one constructed with ``disk=True`` for cross-run persistence).
        Cached cells are not re-executed; a warm cache therefore
        changes wall-clock only, never results. Skipped while a tracer
        is recording (a cache hit would silently drop its spans).
    cell_timeout_s:
        Per-cell wall-clock bound (parallel runs only). A cell past it
        comes back as an error result instead of hanging the sweep; it
        is not retried.
    max_resubmits:
        Rounds of resubmission granted to cells lost to a crashed
        worker (``BrokenProcessPool``). Past the budget the lost cells
        come back as error results; the sweep itself always completes.

    Returns
    -------
    SweepResult
        Per-cell results in grid order plus the aggregate counter
        fold (folded in grid order — float-sum stable). Worker-death
        and timeout accounting, if any, lands in ``fault_stats``.
    """
    t0 = time.perf_counter()
    cells = spec.cells()
    tracer = get_tracer()
    tracing = bool(tracer.enabled)
    if cache is True:
        cache = ContentCache()
    use_cache = cache is not None and cache is not False and not tracing

    results: list[CellResult | None] = [None] * len(cells)
    pending: list[tuple[int, SweepCell]] = []
    for i, cell in enumerate(cells):
        hit = cache.get(cell.key()) if use_cache else None
        if hit is not None:
            hit.index = i
            hit.cached = True
            results[i] = hit
        else:
            pending.append((i, cell))

    fault_stats = None
    if workers <= 1 or len(pending) <= 1:
        for i, cell in pending:
            results[i] = _run_cell(i, cell)
    else:
        stats = {"pool_restarts": 0, "resubmitted_cells": 0,
                 "timed_out_cells": 0, "abandoned_cells": 0}
        todo = [(i, cell, tracing) for i, cell in pending]
        attempts = 0
        while todo:
            done, lost = _pool_round(todo, workers, cell_timeout_s, stats)
            for index, result in done.items():
                results[index] = result
            if not lost:
                break
            if attempts >= max_resubmits:
                # Budget exhausted: surface the loss, never hang/raise.
                stats["abandoned_cells"] += len(lost)
                for payload in lost:
                    i, cell = payload[0], payload[1]
                    results[i] = CellResult(
                        i, cell.library, cell.workload, supported=True,
                        error=(f"worker died; resubmission budget "
                               f"({max_resubmits}) exhausted"))
                break
            attempts += 1
            stats["resubmitted_cells"] += len(lost)
            todo = lost
        if any(stats.values()):
            fault_stats = stats
        # Splice worker timelines in deterministic (cell) order.
        if tracing:
            for result in results:
                if result.tracer_payload:
                    tracer.absorb(result.tracer_payload)
                    result.tracer_payload = None

    if use_cache:
        for i, cell in pending:
            cached_copy = results[i]
            if cached_copy.error is not None and (
                    cached_copy.error.startswith("timeout:")
                    or cached_copy.error.startswith("worker died")):
                # Executor faults are transient — memoizing one would
                # replay a dead worker forever on warm runs.
                continue
            cache.put(cell.key(), cached_copy)

    merged = Counters()
    for result in results:
        if result.counters is not None:
            merged.merge(result.counters)
    return SweepResult(
        results=results,
        counters=merged,
        workers=workers,
        wall_s=time.perf_counter() - t0,
        cache_stats=cache.stats() if use_cache else None,
        fault_stats=fault_stats,
    )
