"""``python -m repro.bench sweep`` — the grid benchmark.

Runs one declarative :class:`~repro.parallel.SweepSpec` three ways —
serial cold, parallel cold (``--workers N``), and serial again under
the simulation memo the serial pass filled — asserts all three produce
bit-identical results, and reports the wall-clocks. The bit-identity
check is a correctness contract (a divergence exits 1); the
wall-clocks are one unrepeated sample each, informational only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.parallel import SimCache, SweepSpec, fingerprint, run_sweep, sim_cache
from repro.trace import Workload


def smoke_grid() -> SweepSpec:
    """Small CI grid: 3 libraries × 4 workloads.

    Sized so the serial pass stays in single-digit seconds while the
    cells are heavy enough for the pool to beat process start-up cost.
    """
    vol = 1 << 20
    return SweepSpec(
        workloads=[
            Workload(k=4, m=2, block_bytes=1024, data_bytes_per_thread=vol),
            Workload(k=6, m=3, block_bytes=1024, data_bytes_per_thread=vol),
            Workload(k=8, m=4, block_bytes=1024, data_bytes_per_thread=vol),
            Workload(k=10, m=4, block_bytes=4096, data_bytes_per_thread=vol),
        ],
        libraries=("ISA-L", "Zerasure", "DIALGA"),
    )


def _timed_sweep(spec: SweepSpec, workers: int, memo: SimCache):
    """One sweep under ``memo``; returns ``(result, seconds)``."""
    with sim_cache(memo):
        t0 = time.perf_counter()
        result = run_sweep(spec, workers=workers)
        return result, time.perf_counter() - t0


def benchmark_sweep(spec: SweepSpec, workers: int = 2) -> dict:
    """Serial-cold / parallel-cold / warm comparison over one grid.

    Returns a JSON-able report: the three wall-clocks, the speedups,
    the bit-identity verdicts, the warm pass's memo hits and misses,
    and a content fingerprint of the result payload.

    Each cold pass runs under a fresh :class:`SimCache`, so it reuses
    no earlier pass's simulations (pool workers fork with an empty
    memo); the warm pass re-runs the sweep serially under the serial
    pass's memo. The process-wide memo is neither read nor written.
    """
    memo = SimCache()
    serial, serial_s = _timed_sweep(spec, 1, memo)
    parallel, parallel_s = _timed_sweep(spec, workers, SimCache())
    hits, misses = memo.hits, memo.misses
    warm, warm_s = _timed_sweep(spec, 1, memo)

    return {
        "grid": {
            "cells": len(spec),
            "libraries": list(spec.libraries),
            "workloads": len(spec.workloads),
        },
        "workers": workers,
        # Pool speedup is bounded by the machine: on a 1-CPU container
        # the parallel pass is pure overhead.
        "cpus": os.cpu_count(),
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup_parallel": round(serial_s / parallel_s, 2)
        if parallel_s else None,
        "speedup_warm": round(serial_s / warm_s, 2) if warm_s else None,
        "identical_serial_parallel": serial == parallel,
        "identical_serial_warm": serial == warm,
        "warm_hits": memo.hits - hits,
        "warm_misses": memo.misses - misses,
        "result_digest": fingerprint(serial.to_dict()),
    }


def render_report(report: dict) -> str:
    """Human-readable summary of a :func:`benchmark_sweep` report."""
    g = report["grid"]
    lines = [
        f"sweep: {g['cells']} cells "
        f"({g['workloads']} workloads x {len(g['libraries'])} libraries)",
        f"  serial cold     {report['serial_s']:8.3f} s",
        f"  parallel cold   {report['parallel_s']:8.3f} s   "
        f"(workers={report['workers']}, {report['cpus']} cpu(s), "
        f"{report['speedup_parallel']}x"
        + (", informational: single CPU)" if (report["cpus"] or 0) < 2
           else ")"),
        f"  warm memo       {report['warm_s']:8.3f} s   "
        f"({report['speedup_warm']}x, {report['warm_hits']} hits, "
        f"{report['warm_misses']} misses)",
        f"  serial == parallel: "
        f"{'PASS' if report['identical_serial_parallel'] else 'FAIL'}",
        f"  serial == warm:     "
        f"{'PASS' if report['identical_serial_warm'] else 'FAIL'}",
        f"  result digest: {report['result_digest'][:16]}...",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.bench sweep`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench sweep",
        description="Run the smoke grid serial / parallel / warm memo "
                    "and verify bit-identical results.")
    parser.add_argument("--workers", type=int, default=2,
                        help="process-pool size for the parallel pass")
    args = parser.parse_args(argv)

    report = benchmark_sweep(smoke_grid(), workers=args.workers)
    print(render_report(report))

    ok = (report["identical_serial_parallel"]
          and report["identical_serial_warm"])
    if not ok:
        print("sweep results diverged between execution modes",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via cli
    raise SystemExit(main())
