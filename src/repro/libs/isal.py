"""ISA-L facade: table-lookup RS with the one-pass row-major kernel."""

from __future__ import annotations

import numpy as np

from repro.codes.rs import RSCode
from repro.libs.base import CodingLibrary
from repro.simulator import HardwareConfig
from repro.trace import Trace, Workload, isal_trace


class ISAL(CodingLibrary):
    """Intel ISA-L (``ec_encode_data``) model.

    Functional path: systematic Vandermonde RS over GF(2^8) with
    table-gather multiply-accumulate (the NumPy analogue of the
    ``vpshufb`` kernel). Performance path: row-major one-pass loads,
    non-temporal parity stores, trailing fence. Each data block is
    loaded exactly once — the memory access pattern the paper's
    analysis (§3) is built on.
    """

    name = "ISA-L"
    #: The row-major kernel takes the same entry-point parameters as
    #: DIALGA's operator, so a pinned Policy maps onto an IsalVariant.
    supports_policy = True

    def __init__(self, k: int, m: int):
        self.code = RSCode(k, m)
        self.k, self.m = k, m

    def encode(self, data: np.ndarray) -> np.ndarray:
        """One-pass parity computation (bit-exact RS)."""
        return self.code.encode_blocks(data)

    def decode(self, available, erased):
        """Invert the surviving generator rows and rebuild (ISA-L style)."""
        return self.code.decode(available, erased)

    def trace(self, wl: Workload, hw: HardwareConfig, thread: int) -> Trace:
        return isal_trace(wl, hw.cpu, thread=thread)

    def _trace_with_policy(self, wl, hw, thread, policy) -> Trace:
        if policy is None:
            return self.trace(wl, hw, thread)
        return isal_trace(wl, hw.cpu, policy.to_variant(), thread=thread)
