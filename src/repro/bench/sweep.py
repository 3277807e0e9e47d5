"""``python -m repro.bench sweep`` — the grid benchmark.

Runs one declarative :class:`~repro.parallel.SweepSpec` three ways —
serial cold, parallel cold (``--workers N``), and warm from a
content-addressed cache — asserts all three produce bit-identical
results, and reports the wall-clocks. The bit-identity check is a
correctness contract (a divergence exits 1); the wall-clocks are one
unrepeated sample each, informational only.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

from repro.parallel import (
    ContentCache, SweepSpec, fingerprint, run_sweep, sim_cache)
from repro.trace import Workload


def smoke_grid(volume: int | None = None) -> SweepSpec:
    """Small CI grid: 3 libraries × 4 workloads.

    Sized so the serial pass stays in single-digit seconds while the
    cells are heavy enough for the pool to beat process start-up cost.
    """
    vol = volume if volume is not None else 1 << 20
    return SweepSpec(
        workloads=[
            Workload(k=4, m=2, block_bytes=1024, data_bytes_per_thread=vol),
            Workload(k=6, m=3, block_bytes=1024, data_bytes_per_thread=vol),
            Workload(k=8, m=4, block_bytes=1024, data_bytes_per_thread=vol),
            Workload(k=10, m=4, block_bytes=4096, data_bytes_per_thread=vol),
        ],
        libraries=("ISA-L", "Zerasure", "DIALGA"),
    )


def full_grid(volume: int | None = None) -> SweepSpec:
    """The paper's §5.1 comparison set over the figure geometries."""
    vol = volume if volume is not None else 1 << 20
    return SweepSpec(
        workloads=[
            Workload(k=k, m=m, block_bytes=bb, data_bytes_per_thread=vol)
            for k, m in ((4, 2), (6, 3), (8, 4), (10, 4), (12, 4))
            for bb in (1024, 4096)
        ],
    )


GRIDS = {"smoke": smoke_grid, "full": full_grid}


def benchmark_sweep(spec: SweepSpec, workers: int = 2) -> dict:
    """Serial-cold / parallel-cold / warm comparison over one grid.

    Returns a JSON-able report: the three wall-clocks, the speedups,
    the bit-identity verdicts, and a content fingerprint of the result
    payload.

    All three passes run with the simulation memo off, so both cold
    passes simulate every cell: pool workers fork with the parent's
    memo, which would otherwise already hold the serial pass's runs.
    """
    cache = ContentCache()

    with sim_cache(None):
        t0 = time.perf_counter()
        serial = run_sweep(spec, workers=1)
        serial_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        parallel = run_sweep(spec, workers=workers, cache=cache)
        parallel_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm = run_sweep(spec, workers=1, cache=cache)
        warm_s = time.perf_counter() - t0

    identical = serial == parallel
    warm_identical = serial == warm
    all_cached = all(r.cached for r in warm.results)
    payload_digest = fingerprint(serial.to_dict())

    return {
        "grid": {
            "cells": len(spec),
            "libraries": list(spec.libraries),
            "workloads": len(spec.workloads),
        },
        "workers": workers,
        # Pool speedup is bounded by the machine: on a 1-CPU container
        # the parallel pass is pure overhead and the warm-cache pass
        # carries the end-to-end win.
        "cpus": os.cpu_count(),
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup_parallel": round(serial_s / parallel_s, 2)
        if parallel_s else None,
        "speedup_warm": round(serial_s / warm_s, 2) if warm_s else None,
        "identical_serial_parallel": identical,
        "identical_serial_warm": warm_identical,
        "warm_all_cached": all_cached,
        "cache": warm.cache_stats,
        "result_digest": payload_digest,
        "results": serial.to_dict(),
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
        f"  warm cache      {report['warm_s']:8.3f} s   "
        f"({report['speedup_warm']}x)",
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
        description="Run a benchmark grid serial / parallel / warm-cache "
                    "and verify bit-identical results.")
    parser.add_argument("--grid", choices=sorted(GRIDS), default="smoke",
                        help="which predefined grid to run")
    parser.add_argument("--workers", type=int, default=2,
                        help="process-pool size for the parallel pass")
    parser.add_argument("--volume", type=int, default=None,
                        help="override per-point simulated volume (bytes)")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="write the full report (incl. per-cell "
                             "results) to this path")
    args = parser.parse_args(argv)

    spec = GRIDS[args.grid](args.volume)
    report = benchmark_sweep(spec, workers=args.workers)
    print(render_report(report))

    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"  report -> {args.json}")

    ok = (report["identical_serial_parallel"]
          and report["identical_serial_warm"])
    if not ok:
        print("sweep results diverged between execution modes",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via cli
    raise SystemExit(main())
