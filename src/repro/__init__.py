"""DIALGA reproduction: adaptive prefetcher scheduling for erasure
coding on persistent memory (Xu et al., ICPP 2025).

Layers (bottom-up):

* :mod:`repro.gf`, :mod:`repro.matrix`, :mod:`repro.codes`,
  :mod:`repro.xorsched` — bit-exact coding substrate.
* :mod:`repro.simulator`, :mod:`repro.trace` — the simulated testbed
  (CPU + stream prefetcher + DRAM/Optane-PM) and kernel access traces.
* :mod:`repro.libs` — the compared systems (ISA-L, ISA-L-D, Zerasure,
  Cerasure) as functional-codec + trace facades.
* :mod:`repro.core` — DIALGA itself.
* :mod:`repro.pmstore`, :mod:`repro.service` — the application layer:
  an erasure-coded PM object store and the concurrent service over it
  (queueing, Eq. (1) admission control, retries, degraded reads).
* :mod:`repro.bench` — experiment harness regenerating every paper
  figure.
* :mod:`repro.parallel` — deterministic process-pool sweep execution
  (:func:`run_sweep`) and the content-addressed simulation memo;
  parallel and warm-memo runs are bit-identical to serial ones.
* :mod:`repro.obs` — simulated-clock tracing/telemetry across all of
  the above (spans, events, Chrome-trace / JSONL / Prometheus
  exporters); a no-op unless a tracer is installed.
* :mod:`repro.chaos` — deterministic fault-campaign engine driving
  timed schedules (corruption, device loss, transient storms, bursts)
  against the self-healing service, with durability auditing.

Quickstart
----------
>>> import numpy as np
>>> from repro import DialgaEncoder, Workload
>>> enc = DialgaEncoder(k=8, m=4)
>>> data = np.random.default_rng(0).integers(0, 256, (8, 1024)).astype(np.uint8)
>>> parity = enc.encode(data)
>>> result = enc.run(Workload.rs(12, 8, block_bytes=1024))
>>> result.throughput_gbps > 0
True
"""

# Every export resolves on first access (PEP 562), so ``import repro``
# costs nothing and a process pays only for the layers it touches.
_LAZY = {
    name: module
    for module, names in (
        ("repro.chaos", ("CANNED_CAMPAIGNS", "AuditReport", "Campaign",
                         "CampaignEngine", "CampaignReport", "ChaosAction",
                         "DurabilityAuditor")),
        ("repro.codes", ("RSCode", "LRCCode", "Stripe")),
        ("repro.core", ("AdaptiveCoordinator", "DialgaConfig",
                        "DialgaEncoder", "Policy")),
        ("repro.gf", ("GF", "gf8")),
        ("repro.libs", ("ISAL", "ISALDecompose", "Zerasure", "Cerasure",
                        "GeometryMismatch", "UnsupportedWorkload")),
        ("repro.parallel", ("SweepResult", "SweepSpec", "run_sweep")),
        ("repro.obs", ("NullTracer", "Tracer", "get_tracer",
                       "prometheus_text", "set_tracer", "use_tracer",
                       "write_trace")),
        ("repro.pmstore", ("FaultEvent", "FaultInjector", "PMStore",
                           "Scrubber", "ScrubReport", "TransientFault")),
        ("repro.service", ("ErasureCodingService", "HealthMonitor",
                           "HealthState", "MetricsRegistry", "Request",
                           "RequestResult", "RetryPolicy", "SelfHealer",
                           "ServiceConfig")),
        ("repro.simulator", ("HardwareConfig", "simulate", "SimResult",
                             "Counters")),
        ("repro.trace", ("Workload",)),
    )
    for name in names
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib
        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "1.2.0"

__all__ = [
    "RSCode",
    "LRCCode",
    "Stripe",
    "DialgaConfig",
    "DialgaEncoder",
    "Policy",
    "AdaptiveCoordinator",
    "GF",
    "gf8",
    "ISAL",
    "ISALDecompose",
    "Zerasure",
    "Cerasure",
    "UnsupportedWorkload",
    "GeometryMismatch",
    "PMStore",
    "FaultInjector",
    "FaultEvent",
    "TransientFault",
    "Scrubber",
    "ScrubReport",
    "ChaosAction",
    "Campaign",
    "CANNED_CAMPAIGNS",
    "CampaignEngine",
    "CampaignReport",
    "DurabilityAuditor",
    "AuditReport",
    "ErasureCodingService",
    "ServiceConfig",
    "HealthMonitor",
    "HealthState",
    "SelfHealer",
    "Request",
    "RequestResult",
    "RetryPolicy",
    "MetricsRegistry",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "write_trace",
    "prometheus_text",
    "HardwareConfig",
    "simulate",
    "SimResult",
    "Counters",
    "Workload",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "__version__",
]
