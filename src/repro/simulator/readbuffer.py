"""The PM on-DIMM read buffer (XPLine-granular, shared across cores).

Optane DIMMs bridge the 64 B DDR-T interface to the 256 B internal
media granularity with a small on-chip buffer: any 64 B read pulls the
whole surrounding XPLine into the buffer (an *implicit load*, paper
§2.1/§4.3). The buffer is shared by all requesting cores, which is why
high thread counts thrash it (Obs. 5): entries are evicted before their
remaining lines are consumed, wasting media bandwidth.

This class is the buffer's state only; the hit/miss/eviction logic and
its accounting live in the PM backend's line fill
(:class:`~repro.simulator.memory.PMBackend`), the one place a 64 B read
touches the buffer.
"""

from __future__ import annotations

from collections import OrderedDict


class PMReadBuffer:
    """LRU buffer of XPLine addresses.

    Parameters
    ----------
    capacity_lines:
        Number of XPLines the buffer holds (default testbed: 384).
    xpline_bytes:
        XPLine size (256 B).
    """

    def __init__(self, capacity_lines: int, xpline_bytes: int):
        if capacity_lines < 1:
            raise ValueError("read buffer needs at least one XPLine slot")
        self.capacity = capacity_lines
        self.xpline_bytes = xpline_bytes
        # xpline id -> number of 64 B accesses served since fill
        self._entries: OrderedDict[int, int] = OrderedDict()

    def xpline_of(self, addr: int) -> int:
        """XPLine id containing byte address ``addr``."""
        return addr // self.xpline_bytes

    def __contains__(self, addr: int) -> bool:
        return self.xpline_of(addr) in self._entries

    # -- fast-forward hooks ------------------------------------------------

    def state_digest(self, addr_shift: int) -> tuple:
        """Shift-invariant digest of the buffer (LRU order).

        ``addr_shift`` must be a multiple of the XPLine size.
        """
        xp_shift = addr_shift // self.xpline_bytes
        return tuple((xp - xp_shift, used)
                     for xp, used in self._entries.items())

    def relabel(self, addr_shift: int) -> None:
        """Translate every resident XPLine by ``addr_shift`` bytes."""
        xp_shift = addr_shift // self.xpline_bytes
        if not xp_shift:
            return
        self._entries = OrderedDict(
            (xp + xp_shift, used) for xp, used in self._entries.items())
