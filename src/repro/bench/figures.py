"""All paper-figure experiments (Figs. 3-7 observations, 10-19 evaluation).

Every function runs one experiment on the simulated testbed and returns
a :class:`~repro.bench.report.FigureResult` whose ``checks`` encode the
paper's qualitative claims (who wins, where the knees are, rough
factors). Absolute GB/s are not expected to match the authors' Optane
testbed — see DESIGN.md §2/§6 and EXPERIMENTS.md.

Paper notation: figures label codes RS(n, k) with n = k + m; here we
use (k, m) directly, so the paper's RS(12, 8) is ``k=8, m=4``.
"""

from __future__ import annotations

from repro.bench.report import FigureResult
from repro.bench.runner import standard_libraries
from repro.core import DialgaConfig, DialgaEncoder, Policy
from repro.libs import ISAL, ISALDecompose, Cerasure, Zerasure
from repro.simulator import HardwareConfig, simulate
from repro.trace import IsalVariant, Workload, isal_trace

HW = HardwareConfig()


def _run_isal(wl: Workload, hw: HardwareConfig, variant=IsalVariant()):
    traces = [isal_trace(wl, hw.cpu, variant, thread=t)
              for t in range(wl.nthreads)]
    return simulate(traces, hw)


def _gain(a: float, b: float) -> float:
    """Relative improvement of a over b."""
    return a / b - 1.0


# ---------------------------------------------------------------------------
# Observations (§3)
# ---------------------------------------------------------------------------

def fig03(volume: int | None = None) -> FigureResult:
    """Fig. 3: RS(12,8) encode throughput by load source x HW prefetch."""
    vol = volume or 192 * 1024
    fig = FigureResult(
        "fig03", "Encoding throughput with different load sources (RS(12,8), 1KB)",
        ["throughput_gbps", "stall_ns_per_load"])
    wl = Workload(k=8, m=4, block_bytes=1024, data_bytes_per_thread=vol)
    vals = {}
    for src in ("pm", "dram"):
        for pf in (False, True):
            hw = HW.with_(load_source=src).with_prefetcher(enabled=pf)
            r = _run_isal(wl, hw)
            vals[(src, pf)] = r
            fig.add_row(f"{src}/pf={'on' if pf else 'off'}",
                        throughput_gbps=r.throughput_gbps,
                        stall_ns_per_load=r.counters.avg_load_latency_ns)
    dram_gain = _gain(vals[("dram", True)].throughput_gbps,
                      vals[("dram", False)].throughput_gbps)
    pm_gain = _gain(vals[("pm", True)].throughput_gbps,
                    vals[("pm", False)].throughput_gbps)
    ratio_off = (vals[("dram", False)].throughput_gbps
                 / vals[("pm", False)].throughput_gbps)
    ratio_on = (vals[("dram", True)].throughput_gbps
                / vals[("pm", True)].throughput_gbps)
    fig.check("DRAM source 195-272% faster than PM (band 1.8x-4.2x)",
              1.8 <= min(ratio_off, ratio_on) and max(ratio_off, ratio_on) <= 4.2,
              f"off={ratio_off:.2f}x on={ratio_on:.2f}x")
    fig.check("HW prefetch helps DRAM more than PM (paper: +109% vs +50%)",
              dram_gain > pm_gain,
              f"dram={dram_gain:+.0%} pm={pm_gain:+.0%}")
    fig.check("PM prefetch gain moderate (paper ~+50%, band +20..+90%)",
              0.20 <= pm_gain <= 0.90, f"{pm_gain:+.0%}")
    fig.notes.append(
        "DRAM prefetch gain lands below the paper's +109% (the conservative "
        "per-block training model); ordering and PM band reproduce.")
    return fig


def fig04(volume: int | None = None) -> FigureResult:
    """Fig. 4: encode throughput vs CPU frequency (PM flattens >2 GHz)."""
    vol = volume or 128 * 1024
    fig = FigureResult(
        "fig04", "Encoding throughput with different CPU frequencies (RS(12,8))",
        ["pm_gbps", "dram_gbps", "pm_avx256_gbps"])
    wl = Workload(k=8, m=4, block_bytes=1024, data_bytes_per_thread=vol)
    freqs = (1.2, 1.8, 2.4, 3.0, 3.3)
    series = {}
    for ghz in freqs:
        row = {}
        for src, col in (("pm", "pm_gbps"), ("dram", "dram_gbps")):
            hw = HW.with_(load_source=src).with_cpu(freq_ghz=ghz)
            row[col] = _run_isal(wl, hw).throughput_gbps
        hw256 = HW.with_cpu(freq_ghz=ghz, simd="avx256")
        row["pm_avx256_gbps"] = _run_isal(wl.with_(simd="avx256"), hw256).throughput_gbps
        series[ghz] = row
        fig.add_row(f"{ghz:.1f}GHz", **row)
    pm_flat = _gain(series[3.3]["pm_gbps"], series[2.4]["pm_gbps"])
    dram_scale = _gain(series[3.3]["dram_gbps"], series[2.4]["dram_gbps"])
    pm_low = _gain(series[2.4]["pm_gbps"], series[1.2]["pm_gbps"])
    fig.check("PM gains little beyond ~2.4 GHz (cycles wait on memory)",
              pm_flat < 0.08, f"2.4->3.3GHz: {pm_flat:+.1%}")
    fig.check("DRAM keeps scaling with frequency more than PM",
              dram_scale > pm_flat, f"dram={dram_scale:+.1%} pm={pm_flat:+.1%}")
    fig.check("PM does scale at low frequencies (compute-bound region)",
              pm_low > pm_flat, f"1.2->2.4GHz: {pm_low:+.1%}")
    avx_flat = _gain(series[3.3]["pm_avx256_gbps"], series[2.4]["pm_avx256_gbps"])
    fig.check("AVX256 flattens later (more compute-bound) than AVX512 on PM",
              avx_flat >= pm_flat - 0.02,
              f"avx256 2.4->3.3GHz: {avx_flat:+.1%}")
    return fig


def fig05(volume: int | None = None) -> FigureResult:
    """Fig. 5: stripe-width sweep (4 KB blocks): the k=32 streamer cliff."""
    vol = volume or 192 * 1024
    fig = FigureResult(
        "fig05", "Impact of stripe width k (m=4, 4KB blocks, HW prefetch on)",
        ["throughput_gbps", "useless_pf_ratio", "l2_pf_per_load"])
    ks = (4, 8, 12, 16, 20, 24, 32, 36, 48, 64)
    tput = {}
    for k in ks:
        wl = Workload(k=k, m=4, block_bytes=4096, data_bytes_per_thread=vol)
        r = _run_isal(wl, HW)
        tput[k] = r.throughput_gbps
        fig.add_row(f"k={k}",
                    throughput_gbps=r.throughput_gbps,
                    useless_pf_ratio=r.counters.useless_hwpf_ratio,
                    l2_pf_per_load=r.counters.hwpf_per_load)
    fig.check("Stage i: throughput rises with k below 16",
              tput[4] < tput[8] < tput[16],
              f"{tput[4]:.2f} < {tput[8]:.2f} < {tput[16]:.2f}")
    fig.check("Stage ii: moderate growth 16 < k <= 32",
              tput[16] <= tput[24] <= tput[32] and tput[32] < 1.3 * tput[16],
              f"{tput[16]:.2f} -> {tput[32]:.2f}")
    fig.check("Stage iii: cliff past 32 streams (paper: 'extremely low')",
              tput[36] < 0.45 * tput[32], f"{tput[36]:.2f} vs {tput[32]:.2f}")
    useless = fig.series("useless_pf_ratio")
    fig.check("Useless-prefetch ratio declines as k grows toward 32",
              useless[0] > useless[5] > useless[6] * 0.99,
              f"k=4:{useless[0]:.2f} k=24:{useless[5]:.2f} k=32:{useless[6]:.2f}")
    pf = fig.series("l2_pf_per_load")
    fig.check("L2 prefetch ratio collapses to ~0 past 32 streams",
              pf[7] < 0.02 and pf[6] > 0.5, f"k=32:{pf[6]:.2f} k=36:{pf[7]:.2f}")
    return fig


def fig06(volume: int | None = None) -> FigureResult:
    """Fig. 6: block-size sweep for RS(28,24): amp at 1-3KB, best at 4KB."""
    vol = volume or 192 * 1024
    fig = FigureResult(
        "fig06", "RS(28,24) throughput and media read amplification vs block size",
        ["pf_on_gbps", "pf_off_gbps", "media_amp"])
    sizes = (256, 512, 1024, 2048, 3072, 4096, 5120)
    rows = {}
    for bs in sizes:
        wl = Workload(k=24, m=4, block_bytes=bs, data_bytes_per_thread=vol)
        r_on = _run_isal(wl, HW)
        r_off = _run_isal(wl, HW.with_prefetcher(enabled=False))
        rows[bs] = (r_on, r_off)
        fig.add_row(f"{bs}B",
                    pf_on_gbps=r_on.throughput_gbps,
                    pf_off_gbps=r_off.throughput_gbps,
                    media_amp=r_on.counters.media_read_amplification)
    g256 = _gain(rows[256][0].throughput_gbps, rows[256][1].throughput_gbps)
    fig.check("256B: prefetcher has no effect and no read amplification",
              abs(g256) < 0.10 and rows[256][0].counters.media_read_amplification <= 1.05,
              f"gain={g256:+.0%} amp={rows[256][0].counters.media_read_amplification:.2f}")
    g1k = _gain(rows[1024][0].throughput_gbps, rows[1024][1].throughput_gbps)
    fig.check("1KB: prefetcher improves 33-112% (band +25..+130%)",
              0.25 <= g1k <= 1.30, f"{g1k:+.0%}")
    amps = [rows[b][0].counters.media_read_amplification for b in (1024, 2048, 3072)]
    fig.check("1-3KB: 23-37% read amplification (band 10-55%)",
              all(1.10 <= a <= 1.55 for a in amps),
              " ".join(f"{a:.2f}" for a in amps))
    amp4k = rows[4096][0].counters.media_read_amplification
    fig.check("4KB: most effective size, no amplification (page-bounded)",
              amp4k <= 1.02 and rows[4096][0].throughput_gbps
              == max(r[0].throughput_gbps for r in rows.values()),
              f"amp={amp4k:.2f}")
    fig.check("5KB: mixed pattern (slower than 4KB, some amplification)",
              rows[5120][0].throughput_gbps < rows[4096][0].throughput_gbps
              and rows[5120][0].counters.media_read_amplification > 1.0,
              f"{rows[5120][0].throughput_gbps:.2f} vs {rows[4096][0].throughput_gbps:.2f}")
    fig.notes.append(
        "512B shows a partial prefetch effect (+~30%, amp 1.5) where the "
        "paper reports none; the streamer-confidence model engages on the "
        "last lines of 8-line streams. All other sizes reproduce.")
    return fig


def fig07(volume: int | None = None) -> FigureResult:
    """Fig. 7: multithread scalability of RS(28,24), HW prefetch on/off."""
    vol = volume or 64 * 1024
    fig = FigureResult(
        "fig07", "Multi-thread scalability of RS(28,24) 1KB encoding",
        ["pf_on_gbps", "pf_off_gbps", "media_amp_on"])
    threads = (1, 2, 4, 8, 10, 12, 16, 18)
    on, off = {}, {}
    for nt in threads:
        wl = Workload(k=24, m=4, block_bytes=1024, nthreads=nt,
                      data_bytes_per_thread=vol)
        r_on = _run_isal(wl, HW)
        r_off = _run_isal(wl, HW.with_prefetcher(enabled=False))
        on[nt], off[nt] = r_on, r_off
        fig.add_row(f"{nt}t",
                    pf_on_gbps=r_on.throughput_gbps,
                    pf_off_gbps=r_off.throughput_gbps,
                    media_amp_on=r_on.counters.media_read_amplification)
    fig.check("Prefetch-on throughput plateaus/declines by 8-10 threads",
              on[18].throughput_gbps <= 1.05 * on[8].throughput_gbps,
              f"8t={on[8].throughput_gbps:.2f} 18t={on[18].throughput_gbps:.2f}")
    fig.check("Prefetch-off scales ~linearly further (no buffer thrash)",
              off[12].throughput_gbps >= 0.9 * (off[1].throughput_gbps * 8),
              f"1t={off[1].throughput_gbps:.2f} 12t={off[12].throughput_gbps:.2f}")
    fig.check("Prefetch-on faster at low concurrency (latency hiding)",
              on[1].throughput_gbps > 1.3 * off[1].throughput_gbps,
              f"on={on[1].throughput_gbps:.2f} off={off[1].throughput_gbps:.2f}")
    fig.check("Thrashing grows media amplification with thread count",
              on[18].counters.media_read_amplification
              > on[1].counters.media_read_amplification + 0.3,
              f"1t={on[1].counters.media_read_amplification:.2f} "
              f"18t={on[18].counters.media_read_amplification:.2f}")
    return fig


# ---------------------------------------------------------------------------
# Evaluation (§5)
# ---------------------------------------------------------------------------

LIB_COLS = ["ISA-L", "ISA-L-D", "Zerasure", "Cerasure", "DIALGA"]


def fig10(volume: int | None = None) -> FigureResult:
    """Fig. 10: encode throughput vs stripe width, all five libraries."""
    vol = volume or 160 * 1024
    xvol = volume or 48 * 1024
    fig = FigureResult(
        "fig10", "Encoding throughput vs number of data blocks (1KB, m=4)",
        LIB_COLS)
    ks = (4, 8, 12, 16, 20, 24, 32, 40, 48, 64)

    def wl_of(k):
        return Workload(k=k, m=4, block_bytes=1024, data_bytes_per_thread=vol)

    def libs_of(k):
        libs = standard_libraries(k, 4)
        return libs

    results = {}
    for k in ks:
        res = {}
        for lib in libs_of(k):
            wl = wl_of(k)
            if lib.name in ("Zerasure", "Cerasure"):
                wl = wl.with_(data_bytes_per_thread=xvol)
            try:
                res[lib.name] = lib.run(wl, HW)
            except Exception as exc:  # UnsupportedWorkload
                from repro.libs import UnsupportedWorkload
                if isinstance(exc, UnsupportedWorkload):
                    res[lib.name] = None
                else:
                    raise
        results[k] = res
        fig.add_row(f"k={k}", **{
            n: (r.throughput_gbps if r is not None else None)
            for n, r in res.items()})

    def tp(k, name):
        r = results[k][name]
        return r.throughput_gbps if r else None

    narrow_gains = []
    for k in (4, 8, 12, 16):
        others = max(v for n in ("ISA-L", "ISA-L-D", "Zerasure", "Cerasure")
                     if (v := tp(k, n)) is not None)
        narrow_gains.append(_gain(tp(k, "DIALGA"), others))
    fig.check("Narrow stripes: DIALGA +53.9-102% over best other (band +30..+130%)",
              all(0.30 <= g <= 1.30 for g in narrow_gains),
              " ".join(f"{g:+.0%}" for g in narrow_gains))
    fig.check("ISA-L collapses for k > 32 (streamer capacity)",
              tp(40, "ISA-L") < 0.55 * tp(32, "ISA-L"),
              f"k=32:{tp(32,'ISA-L'):.2f} k=40:{tp(40,'ISA-L'):.2f}")
    fig.check("Zerasure missing results on wide stripes (search non-convergence)",
              tp(48, "Zerasure") is None and tp(8, "Zerasure") is not None)
    fig.check("ISA-L-D beats Cerasure's decompose on wide stripes "
              "(simpler access pattern)",
              tp(48, "ISA-L-D") > tp(48, "Cerasure"),
              f"{tp(48,'ISA-L-D'):.2f} vs {tp(48,'Cerasure'):.2f}")
    wide_gains = [_gain(tp(k, "DIALGA"), tp(k, "ISA-L")) for k in (40, 48, 64)]
    fig.check("Wide stripes: DIALGA ~3x ISA-L (paper +193.6-198.9%; band >= +150%)",
              all(g >= 1.50 for g in wide_gains),
              " ".join(f"{g:+.0%}" for g in wide_gains))
    fig.check("Cerasure below ISA-L on PM (extra load/stores of XOR path)",
              tp(16, "Cerasure") < tp(16, "ISA-L"),
              f"{tp(16,'Cerasure'):.2f} vs {tp(16,'ISA-L'):.2f}")
    fig.notes.append(
        "DIALGA's wide-stripe gain exceeds the paper's +199% (software "
        "prefetch coverage is more complete in simulation); ordering and "
        "the k=32 cliff reproduce.")
    return fig


def fig11(volume: int | None = None) -> FigureResult:
    """Fig. 11: encode throughput vs number of parity blocks m."""
    vol = volume or 128 * 1024
    xvol = volume or 48 * 1024
    fig = FigureResult(
        "fig11", "Encoding throughput vs parity count m (1KB blocks)",
        ["ISA-L", "Cerasure", "DIALGA"])
    points = [(k, m) for k in (8, 24, 48) for m in (2, 4, 6, 8)]
    results = {}
    for k, m in points:
        wl = Workload(k=k, m=m, block_bytes=1024, data_bytes_per_thread=vol)
        res = {
            "ISA-L": ISAL(k, m).run(wl, HW),
            "Cerasure": Cerasure(k, m).run(
                wl.with_(data_bytes_per_thread=xvol), HW),
            "DIALGA": DialgaEncoder(k, m).run(wl, HW),
        }
        results[(k, m)] = res
        fig.add_row(f"k={k},m={m}", **{
            n: r.throughput_gbps for n, r in res.items()})

    def tp(k, m, n):
        return results[(k, m)][n].throughput_gbps

    gains = [_gain(tp(k, m, "DIALGA"),
                   max(tp(k, m, "ISA-L"), tp(k, m, "Cerasure")))
             for k, m in points]
    fig.check("DIALGA wins at every (k, m) (paper: +20.1-96.6%)",
              all(g > 0.10 for g in gains),
              " ".join(f"{g:+.0%}" for g in gains[:6]) + " ...")
    cer_deg = tp(8, 8, "Cerasure") / tp(8, 2, "Cerasure")
    isal_deg = tp(8, 8, "ISA-L") / tp(8, 2, "ISA-L")
    fig.check("Cerasure degrades faster with m than ISA-L (XOR cost "
              "grows non-linearly)",
              cer_deg < isal_deg,
              f"cerasure x{cer_deg:.2f} isal x{isal_deg:.2f}")
    dialga_wide_spread = (max(tp(48, m, "DIALGA") for m in (2, 4, 6, 8))
                          / min(tp(48, m, "DIALGA") for m in (2, 4, 6, 8)))
    fig.check("Wide stripes: DIALGA stable across m (load-dominated)",
              dialga_wide_spread < 1.35, f"max/min = {dialga_wide_spread:.2f}")
    return fig


def fig12(volume: int | None = None) -> FigureResult:
    """Fig. 12: encode throughput vs block size, all libraries."""
    vol = volume or 128 * 1024
    xvol = volume or 48 * 1024
    fig = FigureResult(
        "fig12", "Encoding throughput vs block size (RS(28,24), m=4)",
        LIB_COLS)
    sizes = (256, 512, 1024, 2048, 4096, 5120)
    k = 24
    libs = standard_libraries(k, 4)
    results = {}
    for bs in sizes:
        res = {}
        for lib in libs:
            wl = Workload(k=k, m=4, block_bytes=bs, data_bytes_per_thread=(
                xvol if lib.name in ("Zerasure", "Cerasure") else vol))
            try:
                res[lib.name] = lib.run(wl, HW)
            except Exception:
                res[lib.name] = None
        results[bs] = res
        fig.add_row(f"{bs}B", **{
            n: (r.throughput_gbps if r else None) for n, r in res.items()})

    def tp(bs, n):
        r = results[bs][n]
        return r.throughput_gbps if r else None

    small_gains = [_gain(tp(bs, "DIALGA"),
                         max(tp(bs, n) for n in LIB_COLS[:-1] if tp(bs, n)))
                   for bs in (256, 512, 1024)]
    fig.check("<=1KB blocks: DIALGA +63.8-180.5% over best other (band +40..+220%)",
              all(0.40 <= g <= 2.20 for g in small_gains),
              " ".join(f"{g:+.0%}" for g in small_gains))
    g4k = _gain(tp(4096, "DIALGA"),
                max(tp(4096, n) for n in LIB_COLS[:-1] if tp(4096, n)))
    fig.check("4KB: DIALGA improvement limited (HW prefetcher at peak)",
              g4k < min(small_gains), f"4KB {g4k:+.0%}")
    g5k = _gain(tp(5120, "DIALGA"),
                max(tp(5120, n) for n in LIB_COLS[:-1] if tp(5120, n)))
    fig.check("5KB: limited improvement, 4KB pages dominate (paper 8.2-25.6%)",
              g5k < max(small_gains), f"5KB {g5k:+.0%}")
    fig.check("XOR libraries suffer most at small blocks",
              tp(256, "Cerasure") < 0.8 * tp(256, "ISA-L"),
              f"{tp(256,'Cerasure'):.2f} vs {tp(256,'ISA-L'):.2f}")
    return fig


def fig13(volume: int | None = None) -> FigureResult:
    """Fig. 13: multithread scalability, DIALGA vs ISA-L vs decompose."""
    vol = volume or 40 * 1024
    fig = FigureResult(
        "fig13", "Multi-thread encoding scalability",
        ["ISA-L", "ISA-L-D", "DIALGA"])
    threads = (1, 2, 4, 8, 12, 16, 18)
    configs = [("RS(28,24)/1KB", 24, 1024), ("RS(28,24)/4KB", 24, 4096),
               ("RS(52,48)/1KB", 48, 1024)]
    results = {}
    for tag, k, bs in configs:
        for nt in threads:
            wl = Workload(k=k, m=4, block_bytes=bs, nthreads=nt,
                          data_bytes_per_thread=vol)
            res = {
                "ISA-L": ISAL(k, 4).run(wl, HW),
                "ISA-L-D": ISALDecompose(k, 4).run(wl, HW),
                "DIALGA": DialgaEncoder(k, 4).run(wl, HW),
            }
            results[(tag, nt)] = res
            fig.add_row(f"{tag}/{nt}t", **{
                n: r.throughput_gbps for n, r in res.items()})

    def peak(tag, name):
        return max(results[(tag, nt)][name].throughput_gbps for nt in threads)

    p1 = peak("RS(28,24)/1KB", "DIALGA") / peak("RS(28,24)/1KB", "ISA-L")
    fig.check("RS(28,24) 1KB: DIALGA peaks higher than ISA-L (paper +50%)",
              1.25 <= p1 <= 2.60, f"x{p1:.2f}")
    p2 = peak("RS(28,24)/4KB", "DIALGA") / peak("RS(28,24)/4KB", "ISA-L")
    fig.check("RS(28,24) 4KB: only marginal DIALGA gain (HW prefetch "
              "efficient at 4KB)",
              p2 < p1 and p2 <= 1.45, f"x{p2:.2f}")
    p3 = peak("RS(52,48)/1KB", "DIALGA") / peak("RS(52,48)/1KB", "ISA-L")
    fig.check("Wide stripes: DIALGA well above ISA-L (paper +182.8%; band >= +50%)",
              p3 >= 1.50, f"x{p3:.2f}")
    p4 = peak("RS(52,48)/1KB", "DIALGA") / peak("RS(52,48)/1KB", "ISA-L-D")
    fig.check("Wide stripes: DIALGA up to +140.3% over decompose (band >= +60%)",
              p4 >= 1.60, f"x{p4:.2f}")
    isal_1k = [results[("RS(28,24)/1KB", nt)]["ISA-L"].throughput_gbps
               for nt in threads]
    fig.check("ISA-L bottlenecks by ~8 threads on 1KB stripes",
              isal_1k[-1] <= 1.1 * isal_1k[3],
              f"8t={isal_1k[3]:.2f} 18t={isal_1k[-1]:.2f}")
    dialga_wide = [results[("RS(52,48)/1KB", nt)]["DIALGA"].throughput_gbps
                   for nt in threads]
    fig.check("Wide stripes: DIALGA sustains throughput at high thread "
              "counts (adaptive coordination)",
              dialga_wide[-1] >= 1.4 * results[("RS(52,48)/1KB", 18)]["ISA-L"].throughput_gbps,
              f"18t dialga={dialga_wide[-1]:.2f}")
    fig.notes.append(
        "DIALGA's multithread peak ratios exceed the paper's (+50% becomes "
        "~2x) because its single-thread gain is already larger in "
        "simulation; shapes (ISA-L knee at 8 threads, 4KB marginality, "
        "wide-stripe dominance) reproduce.")
    return fig


def fig14(volume: int | None = None) -> FigureResult:
    """Fig. 14: decoding throughput vs stripe width."""
    vol = volume or 96 * 1024
    xvol = volume or 32 * 1024
    fig = FigureResult(
        "fig14", "Decoding throughput vs stripe width (m=4 erasures, 1KB)",
        ["ISA-L", "Zerasure", "Cerasure", "DIALGA"])
    ks = (8, 16, 24, 32, 48)
    results = {}
    for k in ks:
        wl = Workload(k=k, m=4, op="decode", erasures=4, block_bytes=1024,
                      data_bytes_per_thread=vol)
        xwl = wl.with_(data_bytes_per_thread=xvol)
        res = {
            "ISA-L": ISAL(k, 4).run(wl, HW),
            "Zerasure": Zerasure(k, 4).run(xwl, HW) if Zerasure(k, 4).search.converged else None,
            "Cerasure": Cerasure(k, 4).run(xwl, HW),
            "DIALGA": DialgaEncoder(k, 4).run(wl, HW),
        }
        results[k] = res
        fig.add_row(f"k={k}", **{
            n: (r.throughput_gbps if r else None) for n, r in res.items()})

    def tp(k, n):
        r = results[k][n]
        return r.throughput_gbps if r else None

    dialga_gains = [_gain(tp(k, "DIALGA"), tp(k, "ISA-L")) for k in ks[:4]]
    fig.check("DIALGA decode +76.1-88.1% over ISA-L (band +35..+130%)",
              all(0.35 <= g <= 1.30 for g in dialga_gains),
              " ".join(f"{g:+.0%}" for g in dialga_gains))
    fig.check("Wide-stripe decode: DIALGA >= 2x ISA-L (streamer dead at k=48)",
              tp(48, "DIALGA") >= 2.0 * tp(48, "ISA-L"),
              f"{tp(48, 'DIALGA'):.2f} vs {tp(48, 'ISA-L'):.2f}")
    cer_gains = [tp(k, "DIALGA") / tp(k, "Cerasure") for k in ks[:4]]
    fig.check("DIALGA decode 142.1-340.7% over Cerasure (band >= 2x)",
              all(g >= 2.0 for g in cer_gains),
              " ".join(f"x{g:.1f}" for g in cer_gains))
    # XOR decode degradation vs their own encode
    enc = Cerasure(16, 4).run(Workload(k=16, m=4, block_bytes=1024,
                                       data_bytes_per_thread=xvol), HW)
    fig.check("XOR libraries degrade on decode (unoptimizable decode matrix)",
              tp(16, "Cerasure") < 0.9 * enc.throughput_gbps,
              f"decode {tp(16,'Cerasure'):.2f} vs encode {enc.throughput_gbps:.2f}")
    return fig


def fig15(volume: int | None = None) -> FigureResult:
    """Fig. 15: AVX512 vs AVX256 encode throughput."""
    vol = volume or 128 * 1024
    fig = FigureResult(
        "fig15", "Encoding throughput with different SIMD widths (1KB)",
        ["ISA-L_avx512", "ISA-L_avx256", "DIALGA_avx512", "DIALGA_avx256"])
    ks = (8, 24, 48)
    results = {}
    for k in ks:
        row = {}
        for simd in ("avx512", "avx256"):
            wl = Workload(k=k, m=4, block_bytes=1024,
                          data_bytes_per_thread=vol, simd=simd)
            row[f"ISA-L_{simd}"] = ISAL(k, 4).run(wl, HW).throughput_gbps
            row[f"DIALGA_{simd}"] = DialgaEncoder(k, 4).run(wl, HW).throughput_gbps
        results[k] = row
        fig.add_row(f"k={k}", **row)
    isal_declines = [1 - results[k]["ISA-L_avx256"] / results[k]["ISA-L_avx512"]
                     for k in ks]
    dialga_declines = [1 - results[k]["DIALGA_avx256"] / results[k]["DIALGA_avx512"]
                       for k in ks]
    fig.check("ISA-L declines moderately on AVX256 (paper 12.3-23.6%; band 5-35%)",
              all(0.05 <= d <= 0.35 for d in isal_declines),
              " ".join(f"{d:.0%}" for d in isal_declines))
    fig.check("DIALGA declines more than ISA-L (it made encoding compute-bound)",
              sum(dialga_declines) > sum(isal_declines),
              f"dialga {sum(dialga_declines)/3:.0%} vs isal {sum(isal_declines)/3:.0%}")
    fig.check("DIALGA on AVX256 still beats ISA-L on AVX512 (paper +37.5-104.4%)",
              all(results[k]["DIALGA_avx256"] > results[k]["ISA-L_avx512"]
                  for k in ks),
              " ".join(f"{results[k]['DIALGA_avx256']/results[k]['ISA-L_avx512']:.2f}x"
                       for k in ks))
    return fig


def fig16(volume: int | None = None) -> FigureResult:
    """Fig. 16: LRC encoding throughput."""
    vol = volume or 96 * 1024
    xvol = volume or 32 * 1024
    fig = FigureResult(
        "fig16", "LRC(k,m,l) encoding throughput (1KB blocks)",
        ["ISA-L", "ISA-L-D", "Cerasure", "DIALGA", "DIALGA_RS"])
    configs = [(8, 4, 2), (24, 4, 4), (48, 4, 4)]
    results = {}
    for k, m, l in configs:
        wl = Workload(k=k, m=m, block_bytes=1024, lrc_l=l,
                      data_bytes_per_thread=vol)
        res = {
            "ISA-L": ISAL(k, m).run(wl, HW),
            "ISA-L-D": ISALDecompose(k, m).run(wl, HW),
            "Cerasure": Cerasure(k, m).run(
                wl.with_(data_bytes_per_thread=xvol), HW),
            "DIALGA": DialgaEncoder(k, m).run(wl, HW),
            "DIALGA_RS": DialgaEncoder(k, m).run(wl.with_(lrc_l=None), HW),
        }
        results[(k, m, l)] = res
        fig.add_row(f"LRC({k},{m},{l})", **{
            n: r.throughput_gbps for n, r in res.items()})

    def tp(cfg, n):
        return results[cfg][n].throughput_gbps

    def best_non_dialga(cfg):
        return max(tp(cfg, n) for n in ("ISA-L", "ISA-L-D", "Cerasure"))

    fig.check("LRC is slower than RS for DIALGA (extra local-parity stores)",
              all(tp(c, "DIALGA") < tp(c, "DIALGA_RS") for c in configs),
              " ".join(f"{tp(c,'DIALGA')/tp(c,'DIALGA_RS'):.2f}" for c in configs))
    narrow_gains = [_gain(tp(c, "DIALGA"), best_non_dialga(c))
                    for c in configs[:2]]
    fig.check("Non-wide LRC: DIALGA +24.3-32.7% over best other (band +10..+110%)",
              all(0.10 <= g <= 1.10 for g in narrow_gains),
              " ".join(f"{g:+.0%}" for g in narrow_gains))
    wide_gain = _gain(tp(configs[2], "DIALGA"), best_non_dialga(configs[2]))
    fig.check("Wide LRC: DIALGA wins (paper +35.2-37.8%)",
              wide_gain > 0.35, f"{wide_gain:+.0%}")
    rs_gain = _gain(tp(configs[0], "DIALGA_RS"),
                    ISAL(8, 4).run(Workload(k=8, m=4, block_bytes=1024,
                                            data_bytes_per_thread=vol), HW).throughput_gbps)
    lrc_gain = narrow_gains[0]
    fig.check("LRC gain smaller than RS gain (higher store fraction)",
              lrc_gain <= rs_gain + 0.05,
              f"lrc {lrc_gain:+.0%} vs rs {rs_gain:+.0%}")
    fig.notes.append(
        "Wide-stripe LRC gain exceeds the paper's +37.8% for the same "
        "reason as Fig. 10's wide stripes (fuller software-prefetch "
        "coverage in simulation).")
    return fig


def fig17(volume: int | None = None) -> FigureResult:
    """Fig. 17: cache miss cycles per load, normalized to ISA-L."""
    vol = volume or 128 * 1024
    fig = FigureResult(
        "fig17", "Cache miss (stall) cycles per load, normalized to ISA-L",
        ["ISA-L", "ISA-L-D", "DIALGA"])
    results = {}
    for tag, k in (("RS(12,8)", 8), ("RS(28,24)", 24), ("RS(52,48)", 48)):
        wl = Workload(k=k, m=4, block_bytes=1024, data_bytes_per_thread=vol)
        res = {
            "ISA-L": ISAL(k, 4).run(wl, HW),
            "ISA-L-D": ISALDecompose(k, 4).run(wl, HW),
            "DIALGA": DialgaEncoder(k, 4).run(wl, HW),
        }
        base = res["ISA-L"].sim.counters.avg_load_latency_ns
        results[tag] = {n: r.sim.counters.avg_load_latency_ns / base
                        for n, r in res.items()}
        fig.add_row(tag, **results[tag])
    fig.check("RS(12,8): DIALGA ~halves miss cycles (band 0.25-0.70 of ISA-L)",
              0.25 <= results["RS(12,8)"]["DIALGA"] <= 0.70,
              f"{results['RS(12,8)']['DIALGA']:.2f}")
    redn = 1 - results["RS(52,48)"]["DIALGA"] / results["RS(52,48)"]["ISA-L-D"]
    fig.check("RS(52,48): DIALGA cuts >= 25% vs decompose (paper 35.3%)",
              redn >= 0.25, f"{redn:.0%}")
    fig.check("RS(28,24): smallest reduction (HW prefetcher relatively "
              "efficient there)",
              results["RS(28,24)"]["DIALGA"] >= results["RS(12,8)"]["DIALGA"] - 0.25,
              f"{results['RS(28,24)']['DIALGA']:.2f}")
    return fig


def fig18(volume: int | None = None) -> FigureResult:
    """Fig. 18: ablation breakdown Vanilla -> +SW -> +HW -> +BF."""
    vol = volume or 160 * 1024
    fig = FigureResult(
        "fig18", "Breakdown of 1KB encoding throughput (single thread)",
        ["Vanilla", "+SW", "+HW", "+BF"])
    results = {}
    for tag, k in (("RS(12,8)", 8), ("RS(28,24)", 24), ("RS(52,48)", 48)):
        wl = Workload(k=k, m=4, block_bytes=1024, data_bytes_per_thread=vol)
        # Use the distance DIALGA actually runs (hill-climbed from the
        # d=k initialization, §4.1.2) so each +stage reflects the real
        # increments of the full system.
        enc = DialgaEncoder(k, 4, config=DialgaConfig(use_probe=True))
        d = enc.coordinator_for(wl, HW).policy.sw_distance or k
        variants = {
            "Vanilla": Policy(hw_prefetch=False, sw_distance=None),
            "+SW": Policy(hw_prefetch=False, sw_distance=d),
            "+HW": Policy(hw_prefetch=True, sw_distance=d),
            "+BF": Policy(hw_prefetch=True, sw_distance=d,
                          bf_first_distance=2 * d),
        }
        row = {}
        for name, pol in variants.items():
            enc = DialgaEncoder(k, 4, config=DialgaConfig(policy_override=pol))
            row[name] = enc.run(wl, HW).throughput_gbps
        results[tag] = row
        fig.add_row(tag, **row)
    sw_gains = [_gain(results[t]["+SW"], results[t]["Vanilla"]) for t in results]
    hw_gains = [_gain(results[t]["+HW"], results[t]["+SW"]) for t in results]
    bf_gains = [_gain(results[t]["+BF"], results[t]["+HW"]) for t in results]
    fig.check("+SW: pipelined software prefetch is the largest contribution "
              "(paper +29.4-48.6%)",
              all(g >= 0.15 and g > max(h, b) for g, h, b
                  in zip(sw_gains, hw_gains, bf_gains)),
              " ".join(f"{g:+.0%}" for g in sw_gains))
    fig.check("+HW: hardware prefetching adds a small extra gain on top "
              "(paper +8.6-15.9%; band -5..+35%)",
              all(-0.05 <= g <= 0.35 for g in hw_gains),
              " ".join(f"{g:+.0%}" for g in hw_gains))
    fig.check("+BF: buffer-friendly prefetch adds a moderate gain on "
              "medium/wide stripes (paper +18.3-29.3%; band +3..+60%)",
              all(0.03 <= g <= 0.60 for g in bf_gains[1:]),
              " ".join(f"{g:+.0%}" for g in bf_gains))
    fig.check("Full stack is far above Vanilla (cumulative >= +60%)",
              all(results[t]["+BF"] >= 1.6 * results[t]["Vanilla"]
                  for t in results))
    fig.check("BF benefit smaller on the narrowest stripe (spatial "
              "locality already good)",
              bf_gains[0] <= max(bf_gains) + 1e-9,
              " ".join(f"{g:+.0%}" for g in bf_gains))
    fig.notes.append(
        "+SW contributes more than the paper's +29-49% (simulated software "
        "prefetch achieves fuller coverage). On the narrowest stripe the "
        "forced BF split can go slightly negative in our model (its long-"
        "distance prefetches suppress streamer training) — which is why "
        "the coordinator probes BF on/off and backs off to uniform there; "
        "the paper likewise reports BF helping narrow stripes least.")
    return fig


def fig19(volume: int | None = None) -> FigureResult:
    """Fig. 19: read traffic by layer under low/high pressure."""
    vol = volume or 64 * 1024
    fig = FigureResult(
        "fig19", "Read traffic at encode/controller/media layers (RS(28,24) 1KB)",
        ["ctrl_amp", "media_amp", "throughput_gbps"])
    k = 24
    rows = {}
    for tag, nt, lib in (("ISA-L/1t", 1, ISAL(k, 4)),
                         ("DIALGA/1t", 1, DialgaEncoder(k, 4)),
                         ("ISA-L/18t", 18, ISAL(k, 4)),
                         ("DIALGA/18t", 18, DialgaEncoder(k, 4))):
        wl = Workload(k=k, m=4, block_bytes=1024, nthreads=nt,
                      data_bytes_per_thread=vol)
        r = lib.run(wl, HW)
        rows[tag] = r
        fig.add_row(tag,
                    ctrl_amp=r.sim.counters.ctrl_read_amplification,
                    media_amp=r.sim.counters.media_read_amplification,
                    throughput_gbps=r.throughput_gbps)
    isal_lo = rows["ISA-L/1t"].sim.counters.media_read_amplification
    isal_hi = rows["ISA-L/18t"].sim.counters.media_read_amplification
    fig.check("ISA-L media amplification grows under pressure "
              "(paper: 22.3% -> 65.8%)",
              isal_hi > isal_lo + 0.15, f"{isal_lo:.2f} -> {isal_hi:.2f}")
    dialga_hi = rows["DIALGA/18t"].sim.counters.media_read_amplification
    redn = (isal_hi - dialga_hi) / max(1e-9, isal_hi - 1.0) if isal_hi > 1 else 0
    fig.check("DIALGA removes most high-pressure amplification (paper -76.7%)",
              dialga_hi < isal_hi and redn >= 0.5,
              f"isal {isal_hi:.2f} dialga {dialga_hi:.2f} (cut {redn:.0%})")
    dialga_lo = rows["DIALGA/1t"].sim.counters.media_read_amplification
    isal_lo_amp = rows["ISA-L/1t"].sim.counters.media_read_amplification
    fig.check("Low pressure: DIALGA trades extra read traffic for speed "
              "(software prefetches train the streamer, §5.9)",
              dialga_lo >= isal_lo_amp - 0.05 and dialga_lo >= 1.05,
              f"dialga {dialga_lo:.2f} vs isal {isal_lo_amp:.2f}")
    fig.check("DIALGA throughput advantage holds at 18 threads",
              rows["DIALGA/18t"].throughput_gbps > rows["ISA-L/18t"].throughput_gbps,
              f"{rows['DIALGA/18t'].throughput_gbps:.2f} vs "
              f"{rows['ISA-L/18t'].throughput_gbps:.2f}")
    return fig


ALL_FIGURES = {
    "fig03": fig03, "fig04": fig04, "fig05": fig05, "fig06": fig06,
    "fig07": fig07, "fig10": fig10, "fig11": fig11, "fig12": fig12,
    "fig13": fig13, "fig14": fig14, "fig15": fig15, "fig16": fig16,
    "fig17": fig17, "fig18": fig18, "fig19": fig19,
}
