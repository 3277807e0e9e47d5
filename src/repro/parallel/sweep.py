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

A re-run sweep is served by :func:`repro.simulate`'s memo
(:class:`~repro.parallel.cache.SimCache`): its cells rebuild their
libraries and traces, but simulate nothing they simulated before.

While an :mod:`repro.obs` tracer is recording, the sweep runs
in-process whatever ``workers`` says, so spans land on the ambient
tracer in cell order and the trace is deterministic too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dialga import DialgaEncoder
from repro.libs import ISAL, Cerasure, ISALDecompose, UnsupportedWorkload, Zerasure
from repro.obs import get_tracer
from repro.simulator.counters import Counters
from repro.trace import Workload

#: The paper's §5.1 comparison set: every library a sweep (or
#: :func:`repro.bench.standard_libraries`) can build, by name; each is
#: built as ``cls(k, m)``.
LIBRARY_CLASSES = {
    "ISA-L": ISAL,
    "ISA-L-D": ISALDecompose,
    "Zerasure": Zerasure,
    "Cerasure": Cerasure,
    "DIALGA": DialgaEncoder,
}
LIBRARIES = tuple(LIBRARY_CLASSES)

#: Pool rounds granted to cells lost to a crashed worker
#: (``BrokenProcessPool``) before they come back as error results.
MAX_RESUBMITS = 2


@dataclass(frozen=True)
class SweepCell:
    """One grid point: everything needed to rebuild and run it.

    The library is named, not instantiated — cells travel to worker
    processes, so they carry constructor inputs rather than live
    objects.
    """

    library: str
    workload: Workload


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
    parallel ≡ warm memo.
    """

    results: list[CellResult]
    counters: Counters

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
    wl = cell.workload
    try:
        out = LIBRARY_CLASSES[cell.library](wl.k, wl.m).run(wl)
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
    # Imported here, not at module level: serial sweeps never build a
    # pool, and the import costs every process ~10 ms.
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

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


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run every cell of ``spec``; results are independent of ``workers``.

    Parameters
    ----------
    spec:
        The grid.
    workers:
        Process count. 1 runs in-process; N > 1 fans cells out over a
        process pool. Output is byte-identical either way:
        cells are reassembled in grid order before any merging. While
        a tracer is recording, every cell runs in-process, so its
        spans land on that tracer in cell order.

    Cells lost to a crashed worker are resubmitted up to
    :data:`MAX_RESUBMITS` times; past that they come back as error
    results, and the sweep itself always completes.

    Returns
    -------
    SweepResult
        Per-cell results in grid order plus the aggregate counter
        fold (folded in grid order — float-sum stable).
    """
    cells = spec.cells()
    results: list[CellResult | None] = [None] * len(cells)
    if get_tracer().enabled or workers <= 1 or len(cells) <= 1:
        for i, cell in enumerate(cells):
            results[i] = _run_cell(i, cell)
    else:
        lost = list(enumerate(cells))
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

    merged = Counters()
    for result in results:
        if result.counters is not None:
            merged.merge(result.counters)
    return SweepResult(results=results, counters=merged)
