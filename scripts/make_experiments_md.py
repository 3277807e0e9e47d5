#!/usr/bin/env python3
"""Render EXPERIMENTS.md: paper-vs-measured for every figure.

Reads the persisted results of all 15 figure experiments plus the 9
ablations/extensions from ``benchmarks/results/<id>.json`` and renders
a Markdown report next to the paper's quantitative claims, which are
embedded below. Runs no simulation; regenerate the JSON first with::

    python -m repro.bench <figure and ablation ids> \
        --out benchmarks/results --json --no-history

Usage:  python scripts/make_experiments_md.py [output.md]
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.bench.ablations import ALL_ABLATIONS
from repro.bench.figures import ALL_FIGURES
from repro.bench.report import FigureResult

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"

#: What the paper reports for each figure (summarized from §3/§5).
PAPER_EXPECTATIONS = {
    "fig03": "Sourcing from DRAM is 195-272% faster than PM; enabling the "
             "HW prefetcher gains +109% on DRAM but only +50% on PM.",
    "fig04": "PM throughput stops improving beyond ~2 GHz (cycles wasted "
             "waiting on memory); DRAM keeps a consistent improvement "
             "curve; the trend is more pronounced under AVX256.",
    "fig05": "Three stages vs k (4KB blocks): rising below 16, moderate "
             "16-32, collapse past 32 (the streamer tracks 32 "
             "unidirectional streams); useless-prefetch ratio falls as k "
             "grows; L2 prefetching stops entirely past the cliff.",
    "fig06": "No prefetcher effect or read amplification at 256/512B; "
             "+33-112% at 1KB with 23-37% amplification at 1-3KB; 4KB is "
             "the most effective size with no amplification; 5KB mixed.",
    "fig07": "With the prefetcher on, RS(28,24) throughput plateaus or "
             "declines at 8-10 threads (read-buffer thrashing); disabled, "
             "it scales linearly but lower.",
    "fig10": "DIALGA +53.9-102.0% over the best alternative on narrow "
             "stripes; only +22.1% at k=32 (streamer at peak); "
             "+193.6-198.9% on wide stripes; Zerasure misses wide-stripe "
             "results; ISA-L-D +81.9-98.0% over ISA-L wide (vs Cerasure's "
             "+48.9-53.2%).",
    "fig11": "DIALGA +20.1-96.6% over best alternative across m; Cerasure "
             "degrades faster and non-linearly with m; wide-stripe DIALGA "
             "stable across m.",
    "fig12": "DIALGA +63.82-180.5% for blocks <= 1KB; limited gain at 4KB "
             "(prefetcher at peak); 8.2-25.6% at 5KB.",
    "fig13": "RS(28,24)/1KB: ISA-L bottlenecks at 8 threads, DIALGA peaks "
             "+50%; 4KB: marginal gains (up to +21% after ISA-L degrades); "
             "RS(52,48): +182.8% over ISA-L, +140.3% over decompose; "
             "degradation after 10 threads even without prefetching "
             "(96KB buffer sustains 8 x 48 streams).",
    "fig14": "XOR-based decode degrades sharply (decode matrices cannot "
             "be pre-optimized); DIALGA decodes 142.1-340.7% faster than "
             "Cerasure and 76.1-88.1% faster than ISA-L.",
    "fig15": "Moving to AVX256 costs ISA-L 12.3-23.6% and DIALGA "
             "24.9-31.1%; DIALGA on AVX256 still beats the others by "
             "37.5-104.4%.",
    "fig16": "All strategies lose throughput vs RS (extra local-parity "
             "stores); DIALGA +24.3-32.7% on non-wide and +35.2-37.8% on "
             "wide stripes; store-heavy LRC shrinks DIALGA's edge.",
    "fig17": "ISA-L shows ~2x DIALGA's miss cycles at RS(12,8); smaller "
             "reduction at RS(28,24); 35.3% fewer cycles than decompose "
             "at RS(52,48).",
    "fig18": "Pipelined software prefetch +29.4-48.6%; hardware "
             "prefetching +8.6-15.9%; buffer-friendly prefetching "
             "+18.3-29.3%; BF helps narrow stripes least.",
    "fig19": "Low pressure: inaccurate HW prefetching cascades read "
             "amplification (ISA-L media 22.3%); DIALGA trades extra "
             "traffic for speed. High pressure (18t): ISA-L media "
             "amplification rises to 65.8%; DIALGA cuts amplification by "
             "76.7%.",
}


def render() -> str:
    """The full report, from ``RESULTS_DIR/<id>.json`` in registry order."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python scripts/make_experiments_md.py` from "
        "`benchmarks/results/<id>.json`; every experiment runs on the "
        "simulated testbed described in DESIGN.md (defaults in "
        "`repro/simulator/params.py`).",
        "",
        "Absolute GB/s are simulator units, not the authors' Optane "
        "testbed; the reproduction targets are the *shapes* — who wins, "
        "where the knees fall, rough factors. Each check row below states "
        "one paper claim and whether the measured series reproduces it.",
        "",
    ]
    total_ok = total = 0
    for name in [*ALL_FIGURES, *ALL_ABLATIONS]:
        result = FigureResult.from_dict(
            json.loads((RESULTS_DIR / f"{name}.json").read_text()))
        ok = sum(c.passed for c in result.checks)
        total_ok += ok
        total += len(result.checks)
        lines.append(f"## {result.fig_id} — {result.title}")
        lines.append("")
        if name in PAPER_EXPECTATIONS:
            lines.append(f"**Paper:** {PAPER_EXPECTATIONS[name]}")
            lines.append("")
        lines.append("```")
        lines.append(result.table_str())
        lines.append("```")
        lines.append("")
        lines.append(f"**Checks ({ok}/{len(result.checks)} passed):**")
        lines.append("")
        for c in result.checks:
            mark = "x" if c.passed else " "
            detail = f" — `{c.detail}`" if c.detail else ""
            lines.append(f"- [{mark}] {c.description}{detail}")
        for n in result.notes:
            lines.append(f"- *Deviation note:* {n}")
        lines.append("")
    lines.insert(4, f"**Overall: {total_ok}/{total} shape checks pass.**")
    lines.insert(5, "")
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    out_path = argv[1] if len(argv) > 1 else "EXPERIMENTS.md"
    text = render()
    with open(out_path, "w") as f:
        f.write(text)
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
