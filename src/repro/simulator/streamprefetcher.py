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

A stream is a plain list ``[last_line, confidence, max_prefetched]``,
indexed by :data:`LAST`, :data:`CONF` and :data:`MAXPF`: the last
accessed line index within the page, the sequential-hit count and the
highest line index already prefetched. Like the cache's lines, a list
literal costs the interpreter's hot loop no Python-level call.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.simulator.counters import Counters
from repro.simulator.params import PrefetcherConfig

#: Field indices of a stream ``[last_line, confidence, max_prefetched]``.
LAST, CONF, MAXPF = 0, 1, 2


class StreamPrefetcher:
    """One core's L2 streamer. ``on_access`` returns lines to prefetch."""

    def __init__(self, config: PrefetcherConfig, counters: Counters):
        self.config = config
        self.counters = counters
        self._table: OrderedDict[int, list] = OrderedDict()
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
            (page - page_shift, s[LAST], s[CONF], s[MAXPF])
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
                if evicted[CONF] < cfg.train_threshold:
                    self.counters.streams_evicted_untrained += 1
            table[page] = [line, 0, line]
            self.counters.streams_allocated += 1
            return []
        table.move_to_end(page)
        if line == stream[LAST] + 1 or line == stream[LAST] + 2:
            # Sequential advance of the stream head.
            stream[CONF] += 1
            stream[LAST] = line
        elif line <= stream[LAST]:
            # At or behind the head: a re-touch (e.g. the demand load
            # trailing a software prefetch). Streamers track the
            # monotone head and ignore these — which is exactly why
            # software prefetching *trains* real streamers (§5.9).
            pass
        else:
            # Forward jump beyond the sequential window (the shuffle
            # mapping's signature): lose confidence.
            stream[CONF] = max(0, stream[CONF] - 2)
            stream[LAST] = line
            return []
        if stream[CONF] < cfg.train_threshold:
            return []
        distance = min(
            (stream[CONF] - cfg.train_threshold) // cfg.ramp_div + 1,
            cfg.max_distance,
        )
        target = min(line + distance, lines_per_page - 1)
        start = max(stream[MAXPF] + 1, line + 1)
        if start > target:
            return []
        stream[MAXPF] = target
        out = [
            page * cfg.page_bytes + l * line_bytes
            for l in range(start, target + 1)
        ]
        self.counters.hwpf_issued += len(out)
        return out
