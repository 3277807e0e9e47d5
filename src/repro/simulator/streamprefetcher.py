"""L2 stream ("streamer") hardware prefetcher model.

Per-core, keyed by 4 KB page, with an LRU stream table. Behaviour is
distilled from the reverse-engineering literature the paper cites
(Rohan et al. EuroS&P'20 W, Didier et al. SBAC-PAD'22) plus the paper's
own Obs. 3:

* A stream trains after ``train_threshold`` ascending accesses in a page.
* Confidence grows with each further sequential access; the
  prefetch-ahead distance ramps with confidence up to ``max_distance``.
* Prefetches never cross the 4 KB page boundary.
* The table holds ``max_streams`` entries (32 on the paper's Cascade
  Lake). When more streams are live than entries, LRU replacement
  evicts streams before they ever train — coverage collapses to zero.
  This is the k > 32 cliff of Fig. 5.
* Non-sequential access within a page (DIALGA's shuffle mapping)
  never raises confidence, so no prefetches are issued — the paper's
  §4.2 fine-grained "switch".
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.simulator.counters import Counters
from repro.simulator.params import PrefetcherConfig


@dataclass(slots=True)
class _Stream:
    last_line: int       # last accessed line index within the page
    confidence: int      # sequential-hit count
    max_prefetched: int  # highest line index already prefetched


class StreamPrefetcher:
    """One core's L2 streamer. ``on_access`` returns lines to prefetch."""

    def __init__(self, config: PrefetcherConfig, counters: Counters):
        self.config = config
        self.counters = counters
        self._table: OrderedDict[int, _Stream] = OrderedDict()
        self.enabled = config.enabled

    def reset(self) -> None:
        """Drop all trained streams (e.g. on a policy switch)."""
        self._table.clear()

    # -- fast-forward hooks ------------------------------------------------

    def state_digest(self, addr_shift: int) -> tuple:
        """Shift-invariant digest of the stream table (LRU order).

        ``addr_shift`` must be a multiple of the page size; pages are
        rebased by the page shift, everything else is page-relative
        already (line indices, confidence).
        """
        page_shift = addr_shift // self.config.page_bytes
        return tuple(
            (page - page_shift, s.last_line, s.confidence, s.max_prefetched)
            for page, s in self._table.items())

    def relabel(self, addr_shift: int) -> None:
        """Translate every tracked stream by ``addr_shift`` bytes."""
        page_shift = addr_shift // self.config.page_bytes
        if not page_shift:
            return
        self._table = OrderedDict(
            (page + page_shift, s) for page, s in self._table.items())

    def on_access(self, addr: int) -> list[int]:
        """Observe a demand (or software-prefetch) access.

        Parameters
        ----------
        addr:
            Byte address of the 64 B access.

        Returns
        -------
        list of byte addresses (line-aligned) the prefetcher decides to
        fetch — empty while untrained, disabled or out of page room.
        """
        if not self.enabled:
            return []
        cfg = self.config
        line_bytes = 64
        page = addr // cfg.page_bytes
        line = (addr % cfg.page_bytes) // line_bytes
        lines_per_page = cfg.page_bytes // line_bytes
        table = self._table
        stream = table.get(page)
        if stream is None:
            if len(table) >= cfg.max_streams:
                _, evicted = table.popitem(last=False)
                if evicted.confidence < cfg.train_threshold:
                    self.counters.streams_evicted_untrained += 1
            table[page] = _Stream(last_line=line, confidence=0, max_prefetched=line)
            self.counters.streams_allocated += 1
            return []
        table.move_to_end(page)
        if line == stream.last_line + 1 or line == stream.last_line + 2:
            # Sequential advance of the stream head.
            stream.confidence += 1
            stream.last_line = line
        elif line <= stream.last_line:
            # At or behind the head: a re-touch (e.g. the demand load
            # trailing a software prefetch). Streamers track the
            # monotone head and ignore these — which is exactly why
            # software prefetching *trains* real streamers (§5.9).
            pass
        else:
            # Forward jump beyond the sequential window (the shuffle
            # mapping's signature): lose confidence.
            stream.confidence = max(0, stream.confidence - 2)
            stream.last_line = line
            return []
        if stream.confidence < cfg.train_threshold:
            return []
        distance = min(
            (stream.confidence - cfg.train_threshold) // cfg.ramp_div + 1,
            cfg.max_distance,
        )
        target = min(line + distance, lines_per_page - 1)
        start = max(stream.max_prefetched + 1, line + 1)
        if start > target:
            return []
        stream.max_prefetched = target
        out = [
            page * cfg.page_bytes + l * line_bytes
            for l in range(start, target + 1)
        ]
        self.counters.hwpf_issued += len(out)
        return out
