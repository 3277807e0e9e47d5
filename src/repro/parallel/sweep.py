"""Deterministic parallel sweep execution.

A sweep is a grid of **cells** — (library × workload) points on the
default :class:`~repro.simulator.HardwareConfig` — each an
independent, deterministic unit of work: rebuild the library from its
name and the workload's geometry, generate its traces, simulate.
:func:`run_sweep` fans cells out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and reassembles
results **by cell index**, so the merged result — per-cell numbers and
the aggregate :class:`Counters` fold — is byte-identical to a serial
run regardless of worker count or completion order. The determinism
suite pins this property.

With a :class:`~repro.parallel.cache.ContentCache`, finished cells are
memoized under a sha256 fingerprint of (library, workload); a warm
sweep re-runs nothing and changes nothing.

While an :mod:`repro.obs` tracer is recording, the sweep runs
in-process whatever ``workers`` says, so spans land on the ambient
tracer in cell order and the trace is deterministic too.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.libs.base import UnsupportedWorkload
from repro.obs import get_tracer
from repro.parallel.cache import ContentCache, fingerprint
from repro.simulator.counters import Counters
from repro.trace import Workload

#: The paper's §5.1 comparison set: every library name a sweep (or
#: :func:`repro.bench.standard_libraries`) can build.
LIBRARIES = ("ISA-L", "ISA-L-D", "Zerasure", "Cerasure", "DIALGA")

#: Pool rounds granted to cells lost to a crashed worker
#: (``BrokenProcessPool``) before they come back as error results.
MAX_RESUBMITS = 2


@dataclass(frozen=True)
class SweepCell:
    """One grid point: everything needed to rebuild and run it.

    The library is named, not instantiated — cells travel to worker
    processes and into cache fingerprints, so they carry constructor
    inputs rather than live objects.
    """

    library: str
    workload: Workload

    def key(self) -> str:
        """Content-addressed cache key for this cell's result."""
        return f"cell:{fingerprint(self)}"


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


@dataclass(frozen=True)
class SweepSpec:
    """A sweep grid. Axes iterate in the declared order; the cell list
    (and therefore every merged result) is a pure function of the spec.

    Accepts lists for either axis; they are normalized to tuples. The
    paper's comparison set is the default library axis; a name outside
    it raises :class:`ValueError` here rather than yielding an error
    cell.
    """

    libraries: tuple = LIBRARIES
    workloads: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "libraries", tuple(self.libraries))
        object.__setattr__(self, "workloads", tuple(self.workloads))
        for name in self.libraries:
            if name not in LIBRARIES:
                raise ValueError(f"unknown library {name!r}; expected one "
                                 f"of {', '.join(LIBRARIES)}")
        if not self.workloads:
            raise ValueError("a sweep needs at least one workload")

    def cells(self) -> list[SweepCell]:
        """The grid in its canonical (stable) order: workload-major,
        then library."""
        return [SweepCell(lib, wl)
                for wl in self.workloads for lib in self.libraries]

    def __len__(self) -> int:
        return len(self.workloads) * len(self.libraries)


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

    def __getitem__(self, i: int) -> CellResult:
        return self.results[i]

    def __len__(self) -> int:
        return len(self.results)

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


def _run_cell(index: int, cell: SweepCell) -> CellResult:
    """Execute one cell from scratch (library rebuild + trace + sim)."""
    from repro.bench.runner import standard_libraries
    wl = cell.workload
    try:
        lib, = standard_libraries(wl.k, wl.m, include=(cell.library,))
        out = lib.run(wl)
    except UnsupportedWorkload:
        return CellResult(index, cell.library, wl, supported=False)
    except Exception as exc:  # defensive: one bad cell must not kill a sweep
        return CellResult(index, cell.library, wl, supported=True,
                          error=f"{type(exc).__name__}: {exc}")
    sim = out.sim
    return CellResult(index, cell.library, out.workload, supported=True,
                      throughput_gbps=sim.throughput_gbps,
                      makespan_ns=sim.makespan_ns,
                      data_bytes=sim.data_bytes,
                      counters=sim.counters)


def _pool_round(todo: list[tuple[int, SweepCell]],
                workers: int) -> tuple[dict, list]:
    """One process-pool round over ``todo`` (index, cell) pairs.

    Returns ``(done, lost)``: results by cell index, plus the pairs
    whose worker died (``BrokenProcessPool``) before finishing. Cells
    that finished before the pool broke keep their results; the caller
    decides whether to resubmit the lost ones.
    """
    done: dict[int, CellResult] = {}
    lost: list[tuple[int, SweepCell]] = []
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures, unsent = [], []
        for n, (i, cell) in enumerate(todo):
            try:
                futures.append((i, cell, pool.submit(_run_cell, i, cell)))
            except BrokenProcessPool:
                # A worker died before the round was fully submitted:
                # the unsubmitted rest is lost along with it.
                unsent = todo[n:]
                break
        for i, cell, fut in futures:
            try:
                done[i] = fut.result()
            except BrokenProcessPool:
                lost.append((i, cell))
        lost.extend(unsent)
    finally:
        # Never block shutdown on a dead pool.
        pool.shutdown(wait=not lost, cancel_futures=True)
    return done, lost


def run_sweep(spec: SweepSpec, workers: int = 1,
              cache: ContentCache | None = None) -> SweepResult:
    """Run every cell of ``spec``; results are independent of ``workers``.

    Parameters
    ----------
    spec:
        The grid.
    workers:
        Process count. 1 runs in-process; N > 1 fans uncached cells
        out over a process pool. Output is byte-identical either way:
        cells are reassembled in grid order before any merging. While
        a tracer is recording, every cell runs in-process, so its
        spans land on that tracer in cell order.
    cache:
        ``None`` — no memoization. A :class:`ContentCache` — use it;
        pass the same one to a later sweep to reuse its cells.
        Cached cells are not re-executed; a warm cache therefore
        changes wall-clock only, never results. Skipped while a tracer
        is recording (a cache hit would silently drop its spans).

    Cells lost to a crashed worker are resubmitted up to
    :data:`MAX_RESUBMITS` times; past that they come back as error
    results (never cached), and the sweep itself always completes.

    Returns
    -------
    SweepResult
        Per-cell results in grid order plus the aggregate counter
        fold (folded in grid order — float-sum stable).
    """
    t0 = time.perf_counter()
    cells = spec.cells()
    tracing = bool(get_tracer().enabled)
    use_cache = cache is not None and not tracing

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

    lost: list[tuple[int, SweepCell]] = []
    if tracing or workers <= 1 or len(pending) <= 1:
        for i, cell in pending:
            results[i] = _run_cell(i, cell)
    else:
        lost = pending
        for _ in range(MAX_RESUBMITS + 1):
            done, lost = _pool_round(lost, workers)
            for i, result in done.items():
                results[i] = result
            if not lost:
                break
        for i, cell in lost:
            results[i] = CellResult(
                i, cell.library, cell.workload, supported=True,
                error=(f"worker died; resubmission budget "
                       f"({MAX_RESUBMITS}) exhausted"))

    if use_cache:
        # Executor faults are transient — memoizing one would replay a
        # dead worker forever on warm runs.
        abandoned = {i for i, _ in lost}
        for i, cell in pending:
            if i not in abandoned:
                cache.put(cell.key(), results[i])

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
    )
