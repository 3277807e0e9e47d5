"""Unified tracing & telemetry (``repro.obs``).

One timeline for everything the paper observes with ``perf``: the
simulator's phase spans (with PMU counter deltas attached), the
coordinator's policy switches and hill-climb steps, and the service's
request lifecycles. A :class:`NullTracer` is the process default, so
instrumentation is free until a real :class:`Tracer` is installed with
:func:`set_tracer` / :func:`use_tracer` (or ``python -m repro.bench
--trace out.json``).

See ``docs/observability.md`` for the span taxonomy and exporter
formats.
"""

from repro.obs.check import assert_well_formed, check_containment, check_spans
from repro.obs.export import (
    chrome_trace,
    prometheus_text,
    to_jsonl,
    trace_records,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.obs.summary import (
    aggregate_by_name,
    render_span_tree,
    service_stage_breakdown,
    span_forest,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

# Decision-audit / replay symbols resolve lazily (PEP 562):
# their modules import the simulator and core layers, which themselves
# import repro.obs — eager imports here would cycle.
_LAZY = {
    "DecisionLedger": "repro.obs.audit",
    "ledger_from_coordinator": "repro.obs.audit",
    "DecisionRegret": "repro.obs.replay",
    "RegretReport": "repro.obs.replay",
    "replay_decisions": "repro.obs.replay",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib
        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "SpanEvent",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "trace_records",
    "to_jsonl",
    "write_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "write_trace",
    "prometheus_text",
    "span_forest",
    "aggregate_by_name",
    "render_span_tree",
    "service_stage_breakdown",
    "check_spans",
    "check_containment",
    "assert_well_formed",
    # lazy (PEP 562) — decision audit, counterfactual replay
    "DecisionLedger",
    "ledger_from_coordinator",
    "DecisionRegret",
    "RegretReport",
    "replay_decisions",
]
