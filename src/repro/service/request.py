"""Service request/response types.

A :class:`Request` is one client operation arriving at the service at a
simulated instant; a :class:`RequestResult` is its final disposition
with latency accounting. Both are plain data — the event loop in
:mod:`repro.service.service` owns all behavior.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

#: Fixed per-request service overhead (parse, index, commit), in ns —
#: the service's latency floor and the overload manager's initial
#: batch-time estimate.
BASE_LATENCY_NS = 2_000.0


class RequestKind(str, enum.Enum):
    """What the client asked for."""

    PUT = "put"          # store an object (payload bytes)
    GET = "get"          # read an object back
    ENCODE = "encode"    # raw encode job of `stripes` full stripes


class Priority(enum.IntEnum):
    """Service priority class (lower value = more important).

    Under overload the service sheds in strict *reverse*-priority
    order: BACKGROUND work goes first, NORMAL writes next, FOREGROUND
    reads last — the graceful-degradation ladder of
    :mod:`repro.service.overload`.
    """

    FOREGROUND = 0   # interactive reads
    NORMAL = 1       # writes
    BACKGROUND = 2   # bulk encode / repair-adjacent work

    @staticmethod
    def default_for(kind: "RequestKind") -> "Priority":
        """Default class per operation kind (reads > writes > bulk)."""
        if kind is RequestKind.GET:
            return Priority.FOREGROUND
        if kind is RequestKind.PUT:
            return Priority.NORMAL
        return Priority.BACKGROUND


class RequestStatus(str, enum.Enum):
    """Final disposition of a request."""

    COMPLETED = "completed"
    REJECTED = "rejected"    # admission controller turned it away
    FAILED = "failed"        # retries exhausted / unrecoverable
    SHED = "shed"            # overload control dropped it (fail-fast)


@dataclass(frozen=True)
class Request:
    """One client operation.

    Attributes
    ----------
    kind:
        ``put``, ``get`` or ``encode``.
    key:
        Object key (ignored for ``encode``).
    client:
        Simulated client id (observability only).
    arrival_ns:
        When the request reaches the service, on the simulated clock.
    payload:
        Object bytes for ``put``.
    stripes:
        Volume of an ``encode`` job, in full stripes.
    deadline_ns:
        Absolute simulated instant by which the client needs the
        answer; ``inf`` (the default) means "no deadline". The
        overload layer sheds requests that cannot meet their deadline
        at *enqueue* time instead of letting them time out after
        consuming decode work.
    priority:
        Service class; ``None`` derives the default from ``kind``
        (reads > writes > bulk encode) via :meth:`Priority.default_for`.
    """

    kind: RequestKind
    key: str = ""
    client: int = 0
    arrival_ns: float = 0.0
    payload: bytes = b""
    stripes: int = 1
    deadline_ns: float = math.inf
    priority: Priority | None = None

    @property
    def resolved_priority(self) -> Priority:
        """The effective priority class (explicit or kind-derived)."""
        if self.priority is not None:
            return Priority(self.priority)
        return Priority.default_for(self.kind)

    @staticmethod
    def put(key: str, payload: bytes, *, client: int = 0,
            arrival_ns: float = 0.0, deadline_ns: float = math.inf,
            priority: Priority | None = None) -> "Request":
        """Convenience constructor for a PUT."""
        return Request(RequestKind.PUT, key, client, arrival_ns, payload,
                       deadline_ns=deadline_ns, priority=priority)

    @staticmethod
    def get(key: str, *, client: int = 0, arrival_ns: float = 0.0,
            deadline_ns: float = math.inf,
            priority: Priority | None = None) -> "Request":
        """Convenience constructor for a GET."""
        return Request(RequestKind.GET, key, client, arrival_ns,
                       deadline_ns=deadline_ns, priority=priority)

    @staticmethod
    def encode(stripes: int = 1, *, client: int = 0,
               arrival_ns: float = 0.0, deadline_ns: float = math.inf,
               priority: Priority | None = None) -> "Request":
        """Convenience constructor for a raw encode job."""
        return Request(RequestKind.ENCODE, "", client, arrival_ns,
                       b"", stripes, deadline_ns=deadline_ns,
                       priority=priority)


@dataclass
class RequestResult:
    """Outcome of one request after the service drained it."""

    request: Request
    status: RequestStatus
    #: Arrival-to-completion time on the simulated clock (None when
    #: rejected at admission).
    latency_ns: float | None = None
    #: Transient-fault retries this request consumed.
    retries: int = 0
    #: Whether a GET was served through parity reconstruction.
    degraded: bool = False
    #: Payload handed back to the client (GET only).
    value: bytes = b""
    error: str = ""
    #: Size of the batch this request was coalesced into (1 = alone).
    batch_size: int = 1
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the request completed (possibly degraded)."""
        return self.status is RequestStatus.COMPLETED
