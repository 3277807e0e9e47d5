"""Ablation studies beyond the paper's figures.

These probe the design choices DESIGN.md calls out: how sensitive the
reproduced phenomena are to the stream-table capacity, the PM read
buffer size, the Eq. (1) distance cap, hill-climbed vs fixed prefetch
distances, and the shuffle mapping itself.
"""

from __future__ import annotations

from repro.bench.report import FigureResult
from repro.core import DialgaConfig, DialgaEncoder, Policy, eq1_max_distance
from repro.simulator import HardwareConfig, simulate
from repro.trace import IsalVariant, Workload, isal_trace

HW = HardwareConfig()


def _run(wl: Workload, hw: HardwareConfig, variant=IsalVariant()):
    traces = [isal_trace(wl, hw.cpu, variant, thread=t)
              for t in range(wl.nthreads)]
    return simulate(traces, hw)


def ablation_stream_table(volume: int | None = None) -> FigureResult:
    """The Obs.-3 cliff follows the stream-table capacity (16/32/64).

    The paper observes 32 unidirectional streams on Cascade Lake and 64
    on 3rd-gen Xeon; the throughput cliff must track the knob.
    """
    vol = volume or 128 * 1024
    fig = FigureResult(
        "ablation_stream_table",
        "Stripe-width cliff vs stream-table capacity (4KB blocks, m=4)",
        ["cap16_gbps", "cap32_gbps", "cap64_gbps"])
    ks = (8, 16, 24, 32, 48, 64, 80)
    series = {}
    for k in ks:
        wl = Workload(k=k, m=4, block_bytes=4096, data_bytes_per_thread=vol)
        row = {}
        for cap in (16, 32, 64):
            hw = HW.with_prefetcher(max_streams=cap)
            row[f"cap{cap}_gbps"] = _run(wl, hw).throughput_gbps
        series[k] = row
        fig.add_row(f"k={k}", **row)
    fig.check("Capacity 16: cliff between k=16 and k=24",
              series[24]["cap16_gbps"] < 0.5 * series[16]["cap16_gbps"],
              f"{series[16]['cap16_gbps']:.2f} -> {series[24]['cap16_gbps']:.2f}")
    fig.check("Capacity 32: cliff between k=32 and k=48",
              series[48]["cap32_gbps"] < 0.5 * series[32]["cap32_gbps"]
              and series[32]["cap32_gbps"] > 0.9 * series[24]["cap32_gbps"],
              f"{series[32]['cap32_gbps']:.2f} -> {series[48]['cap32_gbps']:.2f}")
    fig.check("Capacity 64 (3rd-gen Xeon): survives k=48/64, dies at 80",
              series[64]["cap64_gbps"] > 0.5 * series[32]["cap64_gbps"]
              and series[80]["cap64_gbps"] < 0.5 * series[64]["cap64_gbps"],
              f"k=64:{series[64]['cap64_gbps']:.2f} k=80:{series[80]['cap64_gbps']:.2f}")
    return fig


def ablation_read_buffer(volume: int | None = None) -> FigureResult:
    """Thrash onset tracks the read-buffer capacity (48/96/192 KB)."""
    vol = volume or 48 * 1024
    fig = FigureResult(
        "ablation_read_buffer",
        "RS(28,24) 1KB prefetch-off scalability vs PM read-buffer size",
        ["buf48_gbps", "buf96_gbps", "buf192_gbps"])
    threads = (4, 8, 12, 16, 18)
    series = {}
    for nt in threads:
        wl = Workload(k=24, m=4, block_bytes=1024, nthreads=nt,
                      data_bytes_per_thread=vol)
        row = {}
        for kb in (48, 96, 192):
            hw = HW.with_pm(read_buffer_kb=kb).with_prefetcher(enabled=False)
            row[f"buf{kb}_gbps"] = _run(wl, hw).throughput_gbps
        series[nt] = row
        fig.add_row(f"{nt}t", **row)
    # 48 KB = 192 XPLines: thrash beyond 192/24 = 8 threads.
    fig.check("48KB buffer: collapse by 12 threads (192/24 = 8-thread bound)",
              series[12]["buf48_gbps"] < 0.7 * series[8]["buf48_gbps"],
              f"8t={series[8]['buf48_gbps']:.2f} 12t={series[12]['buf48_gbps']:.2f}")
    fig.check("96KB buffer: holds to 16 threads, degrades at 18",
              series[16]["buf96_gbps"] > 0.9 * series[12]["buf96_gbps"]
              and series[18]["buf96_gbps"] < series[16]["buf96_gbps"],
              f"16t={series[16]['buf96_gbps']:.2f} 18t={series[18]['buf96_gbps']:.2f}")
    fig.check("192KB buffer: no collapse through 18 threads",
              series[18]["buf192_gbps"] > 0.85 * series[16]["buf192_gbps"],
              f"16t={series[16]['buf192_gbps']:.2f} 18t={series[18]['buf192_gbps']:.2f}")
    return fig


def ablation_eq1_cap(volume: int | None = None) -> FigureResult:
    """The Eq. (1)-governed high-pressure policy vs not adapting at all.

    At 16 threads the read-buffer budget (Eq. 1) allows only one XPLine
    row of prefetch lead per stream; DIALGA's high-pressure policy
    (capped distance, XPLine expansion, streamer shuffled off) must beat
    the unadapted low-pressure policy (long buffer-friendly distances,
    streamer on) — the switch Fig. 13's stability comes from.
    """
    vol = volume or 48 * 1024
    fig = FigureResult(
        "ablation_eq1_cap",
        "Eq. (1)-capped high-pressure policy vs unadapted low-pressure "
        "policy (RS(28,24) 1KB, 16 threads)",
        ["high_pressure_gbps", "unadapted_gbps",
         "high_pressure_amp", "unadapted_amp"])
    wl = Workload(k=24, m=4, block_bytes=1024, nthreads=16,
                  data_bytes_per_thread=vol)
    cap = eq1_max_distance(16, 24, 4, HW.pm)
    hp = DialgaEncoder(24, 4, config=DialgaConfig(policy_override=Policy(
        hw_prefetch=False, sw_distance=min(24, cap),
        xpline_granularity=True))).run(wl, HW)
    # What the (tuned) low-pressure policy would do if never adapted:
    # streamer on, long buffer-friendly distances.
    lp = DialgaEncoder(24, 4, config=DialgaConfig(policy_override=Policy(
        hw_prefetch=True, sw_distance=28,
        bf_first_distance=56))).run(wl, HW)
    fig.add_row("16t", high_pressure_gbps=hp.throughput_gbps,
                unadapted_gbps=lp.throughput_gbps,
                high_pressure_amp=hp.sim.counters.media_read_amplification,
                unadapted_amp=lp.sim.counters.media_read_amplification)
    fig.check("High-pressure policy outperforms the unadapted policy at "
              "16 threads",
              hp.throughput_gbps > lp.throughput_gbps,
              f"{hp.throughput_gbps:.2f} vs {lp.throughput_gbps:.2f}")
    fig.check("Unadapted prefetching thrashes the read buffer "
              "(higher media amplification)",
              lp.sim.counters.media_read_amplification
              > hp.sim.counters.media_read_amplification + 0.1,
              f"{lp.sim.counters.media_read_amplification:.2f} vs "
              f"{hp.sim.counters.media_read_amplification:.2f}")
    return fig


def ablation_hillclimb(volume: int | None = None) -> FigureResult:
    """Hill-climbed distance vs the d=k initialization (single thread)."""
    vol = volume or 128 * 1024
    fig = FigureResult(
        "ablation_hillclimb",
        "Hill-climbed vs fixed (d=k) software-prefetch distance",
        ["fixed_gbps", "climbed_gbps", "climbed_d"])
    rows = {}
    for k in (8, 24, 48):
        wl = Workload(k=k, m=4, block_bytes=1024, data_bytes_per_thread=vol)
        fixed = DialgaEncoder(
            k, 4, config=DialgaConfig(use_probe=False)).run(wl, HW)
        enc = DialgaEncoder(k, 4, config=DialgaConfig(use_probe=True))
        climbed = enc.run(wl, HW)
        d = enc.policy_log[-1].sw_distance
        rows[k] = (fixed.throughput_gbps, climbed.throughput_gbps, d)
        fig.add_row(f"k={k}", fixed_gbps=fixed.throughput_gbps,
                    climbed_gbps=climbed.throughput_gbps, climbed_d=d)
    fig.check("Hill climbing never loses to the d=k initialization",
              all(c >= f * 0.999 for f, c, _ in rows.values()),
              " ".join(f"{c/f:.2f}x" for f, c, _ in rows.values()))
    fig.check("Hill climbing finds d > k somewhere (PM latency needs lead)",
              any(d > k for k, (_, _, d) in rows.items()))
    return fig


def ablation_shuffle(volume: int | None = None) -> FigureResult:
    """The shuffle mapping acts as a hardware-prefetcher off switch."""
    vol = volume or 128 * 1024
    fig = FigureResult(
        "ablation_shuffle",
        "Shuffle mapping vs BIOS-style prefetcher disable (RS(28,24) 1KB)",
        ["hw_on_gbps", "shuffle_gbps", "bios_off_gbps", "shuffle_hwpf"])
    wl = Workload(k=24, m=4, block_bytes=1024, data_bytes_per_thread=vol)
    on = _run(wl, HW)
    shuffle = _run(wl, HW, IsalVariant(shuffle=True))
    bios = _run(wl, HW.with_prefetcher(enabled=False))
    fig.add_row("RS(28,24)", hw_on_gbps=on.throughput_gbps,
                shuffle_gbps=shuffle.throughput_gbps,
                bios_off_gbps=bios.throughput_gbps,
                shuffle_hwpf=shuffle.counters.hwpf_issued)
    fig.check("Shuffle issues (almost) no hardware prefetches",
              shuffle.counters.hwpf_issued < 0.02 * on.counters.hwpf_issued,
              f"{shuffle.counters.hwpf_issued} vs {on.counters.hwpf_issued}")
    fig.check("Shuffle matches the privileged BIOS/MSR disable within 10%",
              abs(shuffle.throughput_gbps - bios.throughput_gbps)
              <= 0.10 * bios.throughput_gbps,
              f"{shuffle.throughput_gbps:.2f} vs {bios.throughput_gbps:.2f}")
    return fig


def ablation_generality(volume: int | None = None) -> FigureResult:
    """§6: DIALGA's mechanisms generalize to future PM devices.

    A CMM-H-style CXL memory-semantic SSD shares the characteristics
    DIALGA targets (high miss latency, internal-granularity implicit
    loads, on-device buffering), so the DIALGA-over-ISA-L advantage
    must persist there; a 3rd-gen Xeon (64-stream streamer) merely
    moves the wide-stripe cliff.
    """
    vol = volume or 128 * 1024
    from repro.libs import ISAL
    from repro.simulator.presets import get_preset
    fig = FigureResult(
        "ablation_generality",
        "DIALGA vs ISA-L across device presets (§6 generality)",
        ["isal_gbps", "dialga_gbps", "dialga_gain"])
    rows = {}
    for preset, k in (("cascade_lake_optane", 24), ("cxl_cmmh", 24),
                      ("icelake_optane", 48)):
        hw = get_preset(preset)
        wl = Workload(k=k, m=4, block_bytes=1024, data_bytes_per_thread=vol)
        isal = ISAL(k, 4).run(wl, hw).throughput_gbps
        dialga = DialgaEncoder(k, 4).run(wl, hw).throughput_gbps
        rows[preset] = (isal, dialga)
        fig.add_row(f"{preset}/k={k}", isal_gbps=isal, dialga_gbps=dialga,
                    dialga_gain=dialga / isal - 1)
    fig.check("DIALGA keeps a significant edge on the CXL/CMM-H preset",
              rows["cxl_cmmh"][1] > 1.25 * rows["cxl_cmmh"][0],
              f"{rows['cxl_cmmh'][1]:.2f} vs {rows['cxl_cmmh'][0]:.2f}")
    fig.check("64-stream streamer (3rd-gen Xeon) keeps ISA-L alive at k=48 "
              "but DIALGA still wins",
              rows["icelake_optane"][0] > 1.5  # no cliff at k=48
              and rows["icelake_optane"][1] > rows["icelake_optane"][0],
              f"isal {rows['icelake_optane'][0]:.2f} "
              f"dialga {rows['icelake_optane'][1]:.2f}")
    return fig


def ablation_vast_width(volume: int | None = None) -> FigureResult:
    """Production-scale wide stripes, up to VAST's k=154.

    The paper motivates wide stripes with VAST (k = 154) and notes even
    the 64-stream 3rd-gen streamer "remains insufficient for wide
    stripe encoding". Here the full stack runs at that width: ISA-L
    stays at its no-prefetch floor, decomposition recovers some, DIALGA
    keeps scaling because software prefetching tracks no streams.
    """
    vol = volume or 192 * 1024
    from repro.libs import ISAL, ISALDecompose
    fig = FigureResult(
        "ablation_vast_width",
        "Production stripe widths up to VAST's k=154 (1KB blocks, m=4)",
        ["ISA-L", "ISA-L-D", "DIALGA"])
    rows = {}
    for k in (48, 96, 154):
        wl = Workload(k=k, m=4, block_bytes=1024, data_bytes_per_thread=vol)
        res = {
            "ISA-L": ISAL(k, 4).run(wl, HW).throughput_gbps,
            "ISA-L-D": ISALDecompose(k, 4).run(wl, HW).throughput_gbps,
            "DIALGA": DialgaEncoder(k, 4).run(wl, HW).throughput_gbps,
        }
        rows[k] = res
        fig.add_row(f"k={k}", **res)
    fig.check("ISA-L is pinned at the no-prefetch floor at every width",
              max(rows[k]["ISA-L"] for k in rows)
              < 1.3 * min(rows[k]["ISA-L"] for k in rows),
              " ".join(f"{rows[k]['ISA-L']:.2f}" for k in rows))
    fig.check("DIALGA >= 2.5x ISA-L at k=154",
              rows[154]["DIALGA"] >= 2.5 * rows[154]["ISA-L"],
              f"{rows[154]['DIALGA']:.2f} vs {rows[154]['ISA-L']:.2f}")
    fig.check("DIALGA beats decomposition at every width",
              all(rows[k]["DIALGA"] > rows[k]["ISA-L-D"] for k in rows),
              " ".join(f"{rows[k]['DIALGA']/rows[k]['ISA-L-D']:.2f}x"
                       for k in rows))
    fig.check("DIALGA does not degrade from k=48 to k=154",
              rows[154]["DIALGA"] >= 0.9 * rows[48]["DIALGA"],
              f"{rows[48]['DIALGA']:.2f} -> {rows[154]['DIALGA']:.2f}")
    return fig


def extension_update_path(volume: int | None = None) -> FigureResult:
    """Extension: DIALGA's prefetching on the parity-*update* path.

    The paper's predecessor (CodePM) targets update writes; DIALGA
    targets loads. The delta-update kernel reads 1+m streams (old data
    + parities), so pipelined software prefetching should transfer.
    Not a paper figure — an extension experiment.
    """
    vol = volume or 96 * 1024
    from repro.trace.update_gen import update_trace
    fig = FigureResult(
        "extension_update_path",
        "Parity-update (small-write) bandwidth with DIALGA-style prefetch",
        ["plain_gbps", "prefetched_gbps", "gain"])
    rows = {}
    for k, m in ((8, 4), (24, 4)):
        wl = Workload(k=k, m=m, block_bytes=1024, data_bytes_per_thread=vol)
        plain = simulate([update_trace(wl, HW.cpu)], HW)
        d = (1 + m) * 4
        pf = simulate([update_trace(wl, HW.cpu, sw_prefetch_distance=d)], HW)
        gain = pf.throughput_gbps / plain.throughput_gbps - 1
        rows[(k, m)] = gain
        fig.add_row(f"RS({k + m},{k})", plain_gbps=plain.throughput_gbps,
                    prefetched_gbps=pf.throughput_gbps, gain=gain)
    fig.check("Software prefetching accelerates updates by > 20%",
              all(g > 0.20 for g in rows.values()),
              " ".join(f"{g:+.0%}" for g in rows.values()))
    fig.check("Update gain is geometry-insensitive (narrow access pattern)",
              abs(rows[(8, 4)] - rows[(24, 4)]) < 0.5,
              f"{rows[(8, 4)]:+.0%} vs {rows[(24, 4)]:+.0%}")
    return fig


def extension_gain_heatmap(volume: int | None = None) -> FigureResult:
    """Extension: DIALGA's gain over ISA-L across the (k, block) plane.

    A compact map of where adaptive prefetcher scheduling pays: small
    blocks and wide stripes (where the streamer fails) versus 4KB
    blocks at moderate width (where it doesn't). Not a paper figure —
    it interpolates Figs. 10 and 12 into one picture.
    """
    vol = volume or 96 * 1024
    from repro.libs import ISAL
    fig = FigureResult(
        "extension_gain_heatmap",
        "DIALGA speedup over ISA-L across stripe width x block size",
        ["b256", "b1k", "b4k"])
    gains = {}
    for k in (8, 24, 48):
        row = {}
        for bs, col in ((256, "b256"), (1024, "b1k"), (4096, "b4k")):
            wl = Workload(k=k, m=4, block_bytes=bs,
                          data_bytes_per_thread=vol)
            isal = ISAL(k, 4).run(wl, HW).throughput_gbps
            dialga = DialgaEncoder(k, 4).run(wl, HW).throughput_gbps
            row[col] = dialga / isal
        gains[k] = row
        fig.add_row(f"k={k}", **row)
    fig.check("Within streamer capacity (k <= 32): gains grow as blocks "
              "shrink (streamer confidence fades)",
              all(gains[k]["b256"] > gains[k]["b4k"] for k in (8, 24)),
              " ".join(f"k={k}:{gains[k]['b256']:.1f}x vs {gains[k]['b4k']:.1f}x"
                       for k in (8, 24)))
    fig.check("Gains grow as stripes widen (streamer capacity fades)",
              gains[48]["b1k"] > gains[8]["b1k"],
              f"{gains[8]['b1k']:.1f}x -> {gains[48]['b1k']:.1f}x")
    fig.check("DIALGA never loses anywhere on the plane",
              all(g >= 1.0 for row in gains.values() for g in row.values()),
              f"min {min(g for row in gains.values() for g in row.values()):.2f}x")
    return fig


ALL_ABLATIONS = {
    "ablation_stream_table": ablation_stream_table,
    "ablation_read_buffer": ablation_read_buffer,
    "ablation_eq1_cap": ablation_eq1_cap,
    "ablation_hillclimb": ablation_hillclimb,
    "ablation_shuffle": ablation_shuffle,
    "ablation_generality": ablation_generality,
    "ablation_vast_width": ablation_vast_width,
    "extension_update_path": extension_update_path,
    "extension_gain_heatmap": extension_gain_heatmap,
}
