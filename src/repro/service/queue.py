"""Bounded request queue with stripe-geometry batch coalescing.

Requests wait in FIFO order; when the dispatcher pulls work, every
queued request sharing the head's batch key (operation kind + stripe
geometry — the service is single-geometry, so in practice the kind) is
merged into one :class:`Batch` that the service simulates as a *single*
encode job. Coalescing is sound because RS/LRC coding is column-wise
over bytes: encoding the horizontal concatenation of stripes is
bit-exact to encoding each stripe alone (see :func:`encode_coalesced`,
property-tested in ``tests/test_service_property.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.service.request import Request, RequestKind


@dataclass(frozen=True)
class BatchKey:
    """What makes two requests mergeable into one simulated job."""

    kind: RequestKind
    k: int
    m: int
    block_bytes: int


@dataclass
class Batch:
    """A coalesced unit of work pulled from the queue."""

    key: BatchKey
    requests: list[Request]
    #: Simulated instant the dispatcher pulled this batch (queue-wait
    #: accounting; 0.0 until stamped by the service).
    dispatched_ns: float = 0.0

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def coalesced(self) -> bool:
        """Whether more than one request was merged."""
        return len(self.requests) > 1


class RequestQueue:
    """FIFO queue with a depth bound and same-geometry batch pulls."""

    def __init__(self, max_depth: int = 16):
        if max_depth < 1:
            raise ValueError("queue needs max_depth >= 1")
        self.max_depth = max_depth
        self._items: deque[tuple[BatchKey, Request]] = deque()
        #: High-water mark (observability).
        self.peak_depth = 0

    @property
    def depth(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.max_depth

    def push(self, key: BatchKey, request: Request) -> bool:
        """Enqueue; returns False when the queue is full (caller
        rejects — the admission controller's decision, not ours)."""
        if self.full:
            return False
        self._items.append((key, request))
        self.peak_depth = max(self.peak_depth, len(self._items))
        return True

    def evict_lower_priority(self, than) -> tuple[BatchKey, Request] | None:
        """Evict the least-important queued request strictly below
        priority ``than`` (reverse-priority shedding on a full queue).

        Victim selection: the *lowest* priority class present, and the
        latest-arrived request within it (it has waited least, so
        dropping it wastes the least queue time). Returns the evicted
        ``(key, request)`` entry, or None when nothing queued is below
        ``than`` — the arrival itself is then the least important.
        """
        victim_idx = -1
        victim_pri = than
        for idx, (_, req) in enumerate(self._items):
            pri = req.resolved_priority
            # Strictly-lower classes only; ties go to the later arrival
            # (>= keeps scanning to the newest of the worst class).
            if pri > victim_pri or (victim_idx >= 0 and pri == victim_pri):
                victim_idx = idx
                victim_pri = max(victim_pri, pri)
        if victim_idx < 0:
            return None
        entry = self._items[victim_idx]
        del self._items[victim_idx]
        return entry

    def pop_batch(self, max_batch: int = 8) -> Batch | None:
        """Dequeue the head request plus up to ``max_batch - 1`` later
        requests sharing its batch key (FIFO order among the rest is
        preserved)."""
        if not self._items:
            return None
        head_key, head = self._items.popleft()
        taken = [head]
        if max_batch > 1:
            kept: deque[tuple[BatchKey, Request]] = deque()
            while self._items:
                key, req = self._items.popleft()
                if key == head_key and len(taken) < max_batch:
                    taken.append(req)
                else:
                    kept.append((key, req))
            self._items = kept
        return Batch(key=head_key, requests=taken)

    def __len__(self) -> int:
        return len(self._items)


def encode_coalesced(code, stripes: list[np.ndarray]) -> list[np.ndarray]:
    """Encode many (k, width_i) stripes as ONE coding call, bit-exact.

    RS/XOR parity is computed independently per byte column, so the
    horizontal concatenation of the stripes encodes to the horizontal
    concatenation of their parities. This is the kernel-level fact that
    makes queue coalescing safe; the service uses it to turn a batch
    into a single simulated job, and the property tests verify the
    bit-exactness claim against sequential encodes.
    """
    if not stripes:
        return []
    widths = [s.shape[1] for s in stripes]
    parity = code.encode_blocks(np.hstack(stripes))
    out, at = [], 0
    for w in widths:
        out.append(parity[:, at:at + w])
        at += w
    return out
