"""Hardware configuration for the simulated testbed.

Defaults model the paper's evaluation platform (§5.1): Intel Xeon Gold
6240 @ 3.3 GHz (32 KB L1d / 1 MB L2 / 24.75 MB LLC), 6 memory channels
of DDR4-2666 DRAM plus Intel Optane DCPMM 100-series (256 B XPLine,
16 KB on-DIMM read buffer per channel = 96 KB total).

Latency/bandwidth values are drawn from published Optane
characterization studies (Yang et al. FAST'20, Xiang et al. EuroSys'22)
and then *calibrated* so the observation figures (3-7) reproduce the
paper's shapes; every calibrated knob lives here, in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CPUConfig:
    """Core model: frequency, SIMD width and per-op costs (in cycles)."""

    freq_ghz: float = 3.3
    #: "avx512" or "avx256" — AVX256 doubles compute cycles per line.
    simd: str = "avx512"
    #: GF multiply-accumulate cycles per 64 B line per parity (AVX512:
    #: two nibble-table vpshufb + two vpxor plus port pressure).
    gf_cycles_per_parity_line: float = 3.5
    #: Pure-XOR cycles per 64 B line (bitmatrix codes).
    xor_cycles_per_line: float = 0.7
    #: Fixed per-line loop overhead (address generation, branch).
    loop_overhead_cycles: float = 3.0
    #: Cost of issuing one load / store / software-prefetch instruction.
    load_issue_cycles: float = 1.0
    store_issue_cycles: float = 1.5
    swpf_issue_cycles: float = 1.0
    #: Write-pending-queue backpressure threshold, in ns of write-pipe
    #: backlog (~one WPQ depth drained at PM write bandwidth).
    #: Non-temporal stores are posted; a store stalls only for the
    #: backlog *beyond* this allowance. Calibrated against the paper's
    #: store-heavy figures; sweeps may vary it per-cell.
    wpq_backpressure_ns: float = 2000.0

    @property
    def ns_per_cycle(self) -> float:
        return 1.0 / self.freq_ghz

    @property
    def simd_factor(self) -> float:
        """Compute-cycle multiplier for the configured SIMD width."""
        if self.simd == "avx512":
            return 1.0
        if self.simd == "avx256":
            return 2.0
        raise ValueError(f"unknown SIMD width {self.simd!r}")


@dataclass(frozen=True)
class CacheConfig:
    """Private-core cache model (presence-oriented, see DESIGN.md §4)."""

    line_bytes: int = 64
    l2_kb: int = 1024
    #: Latency of a load that hits in L1/L2 (ns).
    hit_latency_ns: float = 4.0

    @property
    def capacity_lines(self) -> int:
        return self.l2_kb * 1024 // self.line_bytes


@dataclass(frozen=True)
class PrefetcherConfig:
    """L2 stream ("streamer") hardware prefetcher model.

    The paper establishes (Obs. 3) that the Cascade Lake streamer
    tracks up to 32 *unidirectional* streams and stops prefetching
    entirely beyond that; 3rd-gen Xeon raises this to 64.
    """

    enabled: bool = True
    #: Stream-table entries (LRU-replaced). 32 = Cascade Lake per paper.
    max_streams: int = 32
    #: Sequential accesses on a page before prefetching starts. Short
    #: streams (small blocks) never reach this — Obs. 4.
    train_threshold: int = 4
    #: Prefetch-ahead distance cap, in 64 B lines.
    max_distance: int = 8
    #: Accesses per +1 of prefetch distance once trained:
    #: distance = min((conf - threshold) // ramp_div + 1, max_distance).
    #: A slow ramp is what makes prefetching less effective on PM (its
    #: 350 ns latency needs a long lead) than on DRAM — Obs. 1.
    ramp_div: int = 3
    page_bytes: int = 4096


@dataclass(frozen=True)
class DRAMConfig:
    """DRAM backend (6 x DDR4-2666 in the paper's testbed)."""

    latency_ns: float = 80.0
    #: Aggregate read bandwidth, GB/s.
    read_bw_gbps: float = 75.0
    write_bw_gbps: float = 60.0
    #: Memory-level parallelism: outstanding demand misses the core
    #: overlaps. DRAM latency sits inside the OOO window, so higher.
    mlp: float = 6.0


@dataclass(frozen=True)
class PMConfig:
    """Optane-style persistent-memory backend."""

    #: Latency of a 64 B load whose XPLine misses the read buffer (ns).
    media_latency_ns: float = 350.0
    #: Latency when the XPLine is already in the on-DIMM read buffer (ns).
    buffer_hit_latency_ns: float = 160.0
    #: Media access granularity (the XPLine).
    xpline_bytes: int = 256
    #: Total on-DIMM read buffer (6 channels x 16 KB).
    read_buffer_kb: int = 96
    #: Aggregate media read bandwidth, GB/s (6 x ~2.4 GB/s DIMMs).
    media_read_bw_gbps: float = 14.0
    #: DDR-T bus (controller<->DIMM) bandwidth for 64 B transfers, GB/s.
    ctrl_bw_gbps: float = 40.0
    #: Non-temporal write bandwidth, GB/s.
    write_bw_gbps: float = 8.0
    #: PM read concurrency the core can overlap (shallower than DRAM).
    mlp: float = 4.0
    #: Prefetch fills complete slower than demand fills on Optane (the
    #: controller deprioritizes them and the media queues them behind
    #: demand): arrival = issue + media_latency * this factor. This is
    #: the Obs.-1 mechanism that makes hardware prefetching less
    #: effective on PM than on DRAM.
    prefetch_latency_factor: float = 2.0

    @property
    def buffer_capacity_lines(self) -> int:
        """Read-buffer capacity in XPLines (384 for the default 96 KB)."""
        return self.read_buffer_kb * 1024 // self.xpline_bytes


@dataclass(frozen=True)
class HardwareConfig:
    """Complete testbed description handed to the simulator."""

    cpu: CPUConfig = field(default_factory=CPUConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    prefetcher: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    pm: PMConfig = field(default_factory=PMConfig)
    #: Where encode *loads* come from: "pm" (default) or "dram" (Fig. 3).
    load_source: str = "pm"
    #: Where parity stores go (non-temporal): "pm" or "dram".
    store_target: str = "pm"

    def with_(self, **kwargs) -> "HardwareConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **kwargs)

    def with_prefetcher(self, **kwargs) -> "HardwareConfig":
        """Return a copy with prefetcher fields replaced."""
        return replace(self, prefetcher=replace(self.prefetcher, **kwargs))

    def with_cpu(self, **kwargs) -> "HardwareConfig":
        """Return a copy with CPU fields replaced."""
        return replace(self, cpu=replace(self.cpu, **kwargs))

    def with_pm(self, **kwargs) -> "HardwareConfig":
        """Return a copy with PM fields replaced."""
        return replace(self, pm=replace(self.pm, **kwargs))
