"""One-call library comparison — the README's "which library should I
use for this workload" entry point.

>>> from repro.bench.compare import compare_libraries
>>> from repro import Workload
>>> table = compare_libraries(Workload(k=8, m=4, block_bytes=1024))
>>> print(table)                                    # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.runner import run_libraries, standard_libraries
from repro.libs.base import LibraryResult
from repro.parallel.sweep import LIBRARIES
from repro.simulator.params import HardwareConfig
from repro.trace.workload import Workload


@dataclass
class Comparison:
    """Result of :func:`compare_libraries`."""

    workload: Workload
    results: dict[str, LibraryResult | None]

    @property
    def winner(self) -> str:
        """Fastest library for this workload."""
        best = max((r.throughput_gbps, n) for n, r in self.results.items()
                   if r is not None)
        return best[1]

    def speedup_over(self, baseline: str = "ISA-L") -> dict[str, float | None]:
        """Throughput of each library relative to ``baseline``."""
        base = self.results.get(baseline)
        if base is None:
            raise ValueError(f"baseline {baseline!r} missing from results")
        return {
            n: (r.throughput_gbps / base.throughput_gbps if r else None)
            for n, r in self.results.items()
        }

    def __str__(self) -> str:
        lines = [f"workload: k={self.workload.k} m={self.workload.m} "
                 f"block={self.workload.block_bytes}B "
                 f"threads={self.workload.nthreads} op={self.workload.op}"]
        width = max(len(n) for n in self.results)
        for name, r in sorted(self.results.items(),
                              key=lambda kv: -(kv[1].throughput_gbps if kv[1] else -1)):
            if r is None:
                lines.append(f"  {name:<{width}}     n/a  (unsupported)")
                continue
            mark = "  <- winner" if name == self.winner else ""
            amp = r.sim.counters.media_read_amplification
            lines.append(f"  {name:<{width}}  {r.throughput_gbps:6.2f} GB/s  "
                         f"media x{amp:.2f}{mark}")
        return "\n".join(lines)


def compare_libraries(wl: Workload, hw: HardwareConfig | None = None,
                      include=LIBRARIES) -> Comparison:
    """Run the paper's comparison set on one workload.

    Returns a :class:`Comparison` whose ``str()`` is a ready-to-print
    ranking table.
    """
    libs = standard_libraries(wl.k, wl.m, include=include)
    return Comparison(workload=wl, results=run_libraries(wl, libs, hw))
