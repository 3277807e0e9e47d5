"""Address layout of stripes in (simulated) memory.

Models the paper's workload: "random 1 KB stripes" over 1 GB of
pre-filled PM — blocks of a stripe are scattered, so each block starts
on its own 4 KB page (or spans ``ceil(size/4K)`` pages when larger).
This is what gives small blocks their *short prefetch streams*: a 1 KB
block occupies only 16 lines of its page, so the streamer's training
ends at the block boundary (Obs. 4).

Threads get disjoint address spaces (distinct high bits), mirroring
per-thread source buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

LINE = 64
PAGE = 4096


@dataclass(frozen=True)
class StripeLayout:
    """Address calculator for one thread's stripes.

    Parameters
    ----------
    k, m:
        Stripe geometry (data/parity block counts).
    block_bytes:
        Block size; need not be line- or page-aligned (e.g. 5 KB).
    thread:
        Thread index (selects a disjoint address region).
    extra_blocks:
        Additional per-stripe blocks beyond k+m (e.g. LRC local
        parities).
    """

    k: int
    m: int
    block_bytes: int
    thread: int = 0
    extra_blocks: int = 0

    def __post_init__(self):
        if self.block_bytes < LINE:
            raise ValueError(f"block must be >= {LINE} B")

    @property
    def lines_per_block(self) -> int:
        """64 B lines per block (ceil for odd sizes)."""
        return -(-self.block_bytes // LINE)

    @property
    def pages_per_block(self) -> int:
        """4 KB pages each block region occupies."""
        return -(-self.block_bytes // PAGE)

    @property
    def blocks_per_stripe(self) -> int:
        return self.k + self.m + self.extra_blocks

    @property
    def stripe_stride(self) -> int:
        """Bytes from one stripe's first block to the next's (whole pages)."""
        return self.blocks_per_stripe * self.pages_per_block * PAGE

    @property
    def thread_base(self) -> int:
        return (self.thread + 1) << 44

    def block_addr(self, stripe: int, block: int) -> int:
        """Base address of stripe-global ``block`` in ``stripe``.

        Blocks 0..k-1 are data, k..k+m-1 parity, then extras.
        """
        if not 0 <= block < self.blocks_per_stripe:
            raise IndexError(f"block {block} out of range")
        index = stripe * self.blocks_per_stripe + block
        return self.thread_base + index * self.pages_per_block * PAGE

    def line_addr(self, stripe: int, block: int, line: int) -> int:
        """Address of 64 B ``line`` within a block."""
        if not 0 <= line < self.lines_per_block:
            raise IndexError(f"line {line} out of range")
        return self.block_addr(stripe, block) + line * LINE
