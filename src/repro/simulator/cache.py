"""Private-core cache presence model.

Coding kernels stream their inputs — every 64 B line is demanded
exactly once — so the interesting cache questions reduce to: *did a
prefetch land this line in L2 before its demand access, and was it
evicted (or never demanded) in between?* We therefore model the L1/L2
hierarchy as one LRU presence map with the L2's capacity, tracking for
each resident line its fill-completion time and whether it arrived via
hardware prefetch, software prefetch or demand.

Useless-prefetch accounting (the PMU 0xf2 analogue) covers all three
ways a prefetch can be wasted: evicted before use, never demanded
(block-end overshoot), or arriving after the demand already paid the
memory latency ("late", counted when the line is claimed).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.simulator.counters import Counters

#: Line provenance markers.
DEMAND, HWPF, SWPF = 0, 1, 2


@dataclass(slots=True)
class _Line:
    arrival_ns: float
    source: int
    used: bool
    #: What a demand-priority fill of this line would have cost (ns);
    #: bounds the residual wait when a demand promotes a late prefetch.
    promo_ns: float = 0.0


class CoreCache:
    """LRU presence map over 64 B lines with prefetch bookkeeping."""

    def __init__(self, capacity_lines: int, counters: Counters):
        if capacity_lines < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity_lines
        self.counters = counters
        self._lines: OrderedDict[int, _Line] = OrderedDict()

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, line_addr: int) -> bool:
        return line_addr in self._lines

    def lookup(self, line_addr: int) -> _Line | None:
        """Return the resident entry (refreshing LRU) or None."""
        ent = self._lines.get(line_addr)
        if ent is not None:
            self._lines.move_to_end(line_addr)
        return ent

    def insert(self, line_addr: int, arrival_ns: float, source: int,
               used: bool = False, promo_ns: float = 0.0) -> None:
        """Install a line, evicting LRU if full."""
        if line_addr in self._lines:
            ent = self._lines[line_addr]
            # Keep the earlier arrival; refresh LRU position.
            ent.arrival_ns = min(ent.arrival_ns, arrival_ns)
            ent.promo_ns = min(ent.promo_ns, promo_ns) if ent.promo_ns else promo_ns
            self._lines.move_to_end(line_addr)
            return
        if len(self._lines) >= self.capacity:
            _, evicted = self._lines.popitem(last=False)
            self._account_eviction(evicted)
        self._lines[line_addr] = _Line(arrival_ns, source, used, promo_ns)

    def _account_eviction(self, ent: _Line) -> None:
        if not ent.used:
            if ent.source == HWPF:
                self.counters.hwpf_useless += 1
            elif ent.source == SWPF:
                self.counters.swpf_useless += 1

    def drain(self) -> None:
        """End-of-run flush: account never-used prefetches as useless."""
        hwpf = swpf = 0
        for ent in self._lines.values():
            if not ent.used:
                if ent.source == HWPF:
                    hwpf += 1
                elif ent.source == SWPF:
                    swpf += 1
        self.counters.hwpf_useless += hwpf
        self.counters.swpf_useless += swpf
        self._lines.clear()

    # -- fast-forward hooks ------------------------------------------------

    def state_digest(self, now_ns: float,
                     addr_shift: int) -> tuple[tuple, float]:
        """Shift-invariant digest of the resident set.

        Entries are reported in LRU order with addresses rebased by
        ``addr_shift`` and arrivals as offsets from ``now_ns``.
        Arrivals already in the past are *settled*: every consumer
        compares them against future times, so their exact value is
        behaviorally dead and digests as ``None`` (their clock-relative
        offset changes every period, which would otherwise block
        convergence forever). Returns ``(digest, max_live_offset_ns)``.
        """
        out = [
            (addr - addr_shift, ent.source, ent.used, ent.promo_ns,
             ent.arrival_ns - now_ns if ent.arrival_ns > now_ns else None)
            for addr, ent in self._lines.items()
        ]
        max_live = max((t[4] for t in out if t[4] is not None), default=0.0)
        return tuple(out), max_live

    def relabel(self, addr_shift: int, time_shift: float,
                now_ns: float) -> None:
        """Translate the resident set by one fast-forward jump.

        Keys shift by ``addr_shift``; in-flight arrivals (later than
        the pre-jump clock ``now_ns``) shift by ``time_shift``; settled
        arrivals keep their (dead) values. LRU order is preserved.
        """
        shifted: OrderedDict[int, _Line] = OrderedDict()
        for addr, ent in self._lines.items():
            if ent.arrival_ns > now_ns:
                ent.arrival_ns += time_shift
            shifted[addr + addr_shift] = ent
        self._lines = shifted
