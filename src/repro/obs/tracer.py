"""Spans, point events and the process-wide tracer.

The paper's methodology is *observation*: ``perf``-sampled PMU events
drive every figure and the coordinator itself. This module gives the
reproduction the same spine — one timeline onto which the simulator's
phase spans, the coordinator's policy decisions and the service's
request lifecycles are all recorded, using **simulated-clock**
timestamps (ns).

Design constraints:

* **Zero dependencies** — plain dataclasses and lists; exporters live
  in :mod:`repro.obs.export`.
* **Free when off** — the process-wide default is a
  :class:`NullTracer` whose methods are trivial no-ops, so instrumented
  hot paths cost one attribute check (``tracer.enabled``) at most.
* **Simulated time** — callers pass timestamps explicitly (the
  simulator's ``ctx.clock``, the service's ``clock_ns``); the tracer
  never reads a wall clock. :meth:`Tracer.shifted` rebases nested
  simulations (which start at t=0) onto an enclosing timeline, and
  :meth:`Tracer.sequenced` lays independent standalone runs end to end
  so a bench sweep stays readable in a trace viewer.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class SpanEvent:
    """A point event on the timeline (optionally tied to a span)."""

    name: str
    ts_ns: float
    span_id: int | None = None
    attrs: dict = field(default_factory=dict)


@dataclass
class Span:
    """One named interval on the simulated timeline."""

    name: str
    span_id: int
    parent_id: int | None
    start_ns: float
    end_ns: float | None = None
    attrs: dict = field(default_factory=dict)
    tracer: "Tracer | None" = field(default=None, repr=False, compare=False)

    @property
    def finished(self) -> bool:
        return self.end_ns is not None

    @property
    def duration_ns(self) -> float:
        """Span length (0 while still open)."""
        return (self.end_ns - self.start_ns) if self.end_ns is not None else 0.0

    def end(self, ts_ns: float, **attrs) -> None:
        """Close this span at ``ts_ns`` (no-op on the null span)."""
        if self.tracer is not None:
            self.tracer.end(self, ts_ns, **attrs)

    def event(self, name: str, ts_ns: float, **attrs) -> SpanEvent | None:
        """Record a point event attached to this span."""
        if self.tracer is not None:
            return self.tracer.event(name, ts_ns, span=self, **attrs)
        return None


#: Shared do-nothing span handed out by :class:`NullTracer`.
NULL_SPAN = Span("null", 0, None, 0.0, 0.0)


class Tracer:
    """Collects spans and events on one simulated timeline.

    Spans opened with :meth:`begin` nest on an internal stack — a new
    span's parent defaults to the innermost open span — except when
    opened ``detached=True`` (used for service request spans, whose
    lifetimes interleave arbitrarily and so cannot obey stack
    discipline).
    """

    enabled = True

    def __init__(self, name: str = "repro"):
        self.name = name
        self.spans: list[Span] = []
        self.events: list[SpanEvent] = []
        self._stack: list[Span] = []
        self._offsets: list[float] = []
        self._next_id = 1
        #: Largest (shifted) timestamp recorded so far.
        self.max_ts = 0.0

    # -- time rebasing -----------------------------------------------------

    @property
    def offset_ns(self) -> float:
        """Current rebasing offset added to every timestamp."""
        return self._offsets[-1] if self._offsets else 0.0

    def _shift(self, ts_ns: float) -> float:
        ts = float(ts_ns) + self.offset_ns
        if ts > self.max_ts:
            self.max_ts = ts
        return ts

    @contextmanager
    def shifted(self, delta_ns: float):
        """Rebase timestamps recorded inside by ``+delta_ns``.

        The service uses this to map a coding job simulated on
        ``[0, makespan]`` onto its own clock at dispatch time, so
        simulator spans and request spans share one timeline.
        """
        self._offsets.append(self.offset_ns + float(delta_ns))
        try:
            yield self
        finally:
            self._offsets.pop()

    @contextmanager
    def sequenced(self, t0_ns: float = 0.0):
        """Place a standalone run after everything recorded so far.

        Independent simulations each start at t=0; laid out naively
        they would all overlap. When no span is open (a standalone
        run), this shifts the run to begin at :attr:`max_ts`. Inside an
        enclosing span (e.g. a service batch) it does nothing — the
        caller already owns the timeline.
        """
        if self._stack:
            yield self
        else:
            with self.shifted(max(0.0, self.max_ts - float(t0_ns))):
                yield self

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, ts_ns: float, *, parent: Span | None = None,
              detached: bool = False, **attrs) -> Span:
        """Open a span at ``ts_ns``; returns it (close with :meth:`end`).

        ``parent`` overrides the default parent (the innermost open
        span). ``detached=True`` makes a root span that is *not* pushed
        on the nesting stack.
        """
        if parent is not None:
            parent_id = parent.span_id
        elif self._stack and not detached:
            parent_id = self._stack[-1].span_id
        else:
            parent_id = None
        span = Span(name, self._next_id, parent_id, self._shift(ts_ns),
                    attrs=dict(attrs), tracer=self)
        self._next_id += 1
        self.spans.append(span)
        if not detached:
            self._stack.append(span)
        return span

    def end(self, span: Span, ts_ns: float, **attrs) -> None:
        """Close ``span`` at ``ts_ns`` (clamped to its start), merging
        ``attrs`` into its attributes."""
        span.attrs.update(attrs)
        span.end_ns = max(self._shift(ts_ns), span.start_ns)
        if span in self._stack:
            self._stack.remove(span)

    def event(self, name: str, ts_ns: float, *, span: Span | None = None,
              **attrs) -> SpanEvent:
        """Record a point event (attached to ``span`` or the innermost
        open span, if any)."""
        if span is not None:
            span_id = span.span_id
        else:
            span_id = self._stack[-1].span_id if self._stack else None
        ev = SpanEvent(name, self._shift(ts_ns), span_id, dict(attrs))
        self.events.append(ev)
        return ev

    # -- reading -----------------------------------------------------------

    @property
    def open_spans(self) -> list[Span]:
        """Spans begun but not yet ended (recording order)."""
        return [s for s in self.spans if not s.finished]

    def find_spans(self, name: str) -> list[Span]:
        """All spans with the given name."""
        return [s for s in self.spans if s.name == name]

    def find_events(self, name: str) -> list[SpanEvent]:
        """All point events with the given name."""
        return [e for e in self.events if e.name == name]


class NullTracer:
    """Do-nothing stand-in with the same surface as :class:`Tracer`.

    This is the process default: instrumented code runs against it at
    effectively zero cost, and any ``tracer.enabled`` guard skips even
    the attribute packing.
    """

    enabled = False
    name = "null"
    spans: tuple = ()
    events: tuple = ()
    max_ts = 0.0
    offset_ns = 0.0

    def begin(self, name: str, ts_ns: float, **kwargs) -> Span:
        return NULL_SPAN

    def end(self, span: Span, ts_ns: float, **attrs) -> None:
        return None

    def event(self, name: str, ts_ns: float, **kwargs) -> None:
        return None

    @contextmanager
    def shifted(self, delta_ns: float):
        yield self

    @contextmanager
    def sequenced(self, t0_ns: float = 0.0):
        yield self

    def find_spans(self, name: str) -> list:
        return []

    def find_events(self, name: str) -> list:
        return []


#: The process-wide null singleton (default tracer).
NULL_TRACER = NullTracer()

_default: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The process-wide default tracer (a no-op unless installed)."""
    return _default


def set_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Install ``tracer`` as the process default; returns the previous
    one (pass None to restore the null tracer)."""
    global _default
    previous = _default
    _default = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer: Tracer | NullTracer | None):
    """Scoped :func:`set_tracer` — restores the previous default on exit."""
    previous = set_tracer(tracer)
    try:
        yield get_tracer()
    finally:
        set_tracer(previous)
