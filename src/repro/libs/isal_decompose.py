"""ISA-L-D facade: ISA-L with wide-stripe decomposition (§5.1).

The paper's authors add the decompose strategy (borrowed from Cerasure)
to plain ISA-L: wide stripes are encoded in passes of at most
``group_size`` source blocks so the L2 streamer stays within its
tracking capacity, at the cost of reloading and rewriting the partial
parity every pass.
"""

from __future__ import annotations

import numpy as np

from repro.codes.rs import RSCode
from repro.libs.base import CodingLibrary
from repro.simulator import HardwareConfig
from repro.trace import IsalVariant, Trace, Workload, isal_trace
from repro.xorsched.decompose import encode_decomposed


class ISALDecompose(CodingLibrary):
    """ISA-L-D: decomposed wide-stripe encoding over the ISA-L kernel."""

    name = "ISA-L-D"

    def __init__(self, k: int, m: int, group_size: int = 16):
        if group_size < 1:
            raise ValueError("group_size must be positive")
        self.code = RSCode(k, m)
        self.k, self.m = k, m
        self.group_size = group_size

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Group-wise partial-parity encode (identical output to ISA-L)."""
        return encode_decomposed(self.code.field, self.code.parity_rows,
                                 np.asarray(data, dtype=np.uint8),
                                 self.group_size)

    def decode(self, available, erased):
        """Decode is not decomposed (same as ISA-L)."""
        return self.code.decode(available, erased)

    def trace(self, wl: Workload, hw: HardwareConfig, thread: int) -> Trace:
        # Decomposing a stripe narrower than the group is a plain pass.
        group = self.group_size if wl.k > self.group_size else None
        return isal_trace(wl, hw.cpu, IsalVariant(decompose_group=group),
                          thread=thread)
