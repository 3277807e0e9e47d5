"""Service-layer scenario: concurrent clients against the EC service.

Not a paper figure — a systems scenario built on the paper's Eq. (1)
read-buffer bound (§4.2.1). A fleet of simulated clients pushes put
traffic through :class:`~repro.service.service.ErasureCodingService`
while a fault injector fires transient device hiccups and one device is
lost outright before the read-back phase. The shape checks pin the
service-layer guarantees:

* admission rejections happen **only** while the Eq. (1) thread cap is
  saturated (``rejected_below_cap`` stays 0);
* every injected transient fault is absorbed by retry — all admitted
  requests complete;
* reads after the device loss are served **degraded** through RS
  reconstruction rather than failing.

The whole scenario records onto a :class:`repro.obs.Tracer` (the
ambient one under ``--trace``, a private one otherwise): request
lifecycle spans yield the per-stage latency breakdown, and the closing
**pressure burst** — a 10-thread adaptive encode job big enough to
thrash the read buffer — drives the coordinator through a live
policy switch on the same timeline.
"""

from __future__ import annotations

from repro.bench.report import FigureResult
from repro.core.dialga import DialgaConfig, DialgaEncoder
from repro.obs import Tracer, get_tracer, service_stage_breakdown, use_tracer
from repro.pmstore import FaultInjector
from repro.service import ErasureCodingService, ServiceConfig, get_wave, put_wave
from repro.service.metrics import LatencyHistogram
from repro.service.request import Request


def _client_sweep(fig: FigureResult, payload: int) -> list[str]:
    """The original fault/degraded-read sweep; returns cap details."""
    cap_detail = []
    for nclients in (8, 16, 32, 48):
        svc = ErasureCodingService(
            8, 4, block_bytes=1024,
            config=ServiceConfig(max_queue_depth=12, max_batch=8))
        inj = FaultInjector(svc.store, seed=nclients)
        svc.store.add_fault_hook(inj.transient_hook(
            rate=0.25, max_failures_per_key=2))
        svc.submit_many(put_wave(nclients, 2, payload_bytes=payload,
                                 mean_gap_ns=2_000.0, seed=nclients))
        put_results = svc.drain()
        stored = {r.request.key for r in put_results if r.ok}
        svc.store.mark_device_lost(1)
        gets = [r for r in get_wave(nclients, 2, start_ns=svc.clock_ns + 1e4,
                                    seed=nclients + 1)
                if r.key in stored]
        svc.submit_many(gets)
        get_results = svc.drain()
        mx = svc.metrics
        put_lat = mx.latency["put"]
        fig.add_row(
            f"{nclients} clients",
            completed=mx.count("completed"),
            rejected=mx.count("admission_rejected"),
            below_cap=mx.count("rejected_below_cap"),
            retries=mx.count("retries"),
            faults=mx.count("faults_transient"),
            degraded=mx.count("degraded_reads"),
            p50_put_us=put_lat.p50 / 1e3,
            p95_put_us=put_lat.p95 / 1e3,
            p999_put_us=put_lat.p999 / 1e3,
            peak_threads=svc.admission.peak_threads)
        cap_detail.append(
            f"{nclients}c: rej={mx.count('admission_rejected')} "
            f"below_cap={mx.count('rejected_below_cap')}")
        fig.check(
            f"{nclients} clients: every admitted request completes "
            "(transient faults absorbed by retry)",
            all(r.ok for r in put_results if r.status.value != "rejected")
            and all(r.ok for r in get_results),
            f"retries={mx.count('retries')} faults="
            f"{mx.count('faults_transient')}")
        # Only objects whose blocks live on the lost device degrade
        # (small objects may not touch every device in the stripe).
        expect_degraded = sum(svc.store.is_degraded(k) for k in stored)
        fig.check(
            f"{nclients} clients: reads hitting the lost device are "
            "reconstructed (degraded), never failed",
            mx.count("degraded_reads") == expect_degraded > 0,
            f"degraded={mx.count('degraded_reads')}/{len(get_results)}")
    return cap_detail


def _pressure_burst(fig: FigureResult) -> None:
    """10-thread adaptive encode burst: the Eq.-(1)-adjacent regime
    where the coordinator switches policy mid-job, on the trace."""
    svc = ErasureCodingService(
        8, 4, block_bytes=1024,
        library=DialgaEncoder(8, 4, config=DialgaConfig(
            use_probe=False, chunks=6)),
        config=ServiceConfig(threads_per_job=10, max_batch=4,
                             max_queue_depth=12))
    svc.submit(Request.encode(stripes=160, arrival_ns=0.0))
    svc.submit_many(put_wave(4, 2, payload_bytes=1024,
                             mean_gap_ns=2_000.0, seed=5))
    results = svc.drain()
    mx = svc.metrics
    enc_lat = mx.latency["encode"]
    fig.add_row(
        "pressure burst",
        completed=mx.count("completed"),
        rejected=mx.count("admission_rejected"),
        below_cap=mx.count("rejected_below_cap"),
        retries=mx.count("retries"),
        faults=mx.count("faults_transient"),
        degraded=mx.count("degraded_reads"),
        p50_put_us=mx.latency["put"].p50 / 1e3,
        p95_put_us=mx.latency["put"].p95 / 1e3,
        p999_put_us=enc_lat.p999 / 1e3,
        peak_threads=svc.admission.peak_threads)
    fig.check(
        "Pressure burst: the 10-thread adaptive encode drives a live "
        "coordinator policy switch (visible as a trace event)",
        mx.count("policy_switches") >= 1
        and all(r.ok for r in results),
        f"policy_switches={mx.count('policy_switches')}")


def _stage_notes(fig: FigureResult, tracer) -> None:
    """Per-stage latency breakdown recovered from request spans."""
    stages = service_stage_breakdown(tracer)
    for stage in ("queue_wait", "execute", "total"):
        values = stages.get(stage, [])
        if not values:
            continue
        hist = LatencyHistogram()
        for v in values:
            hist.record(v)
        fig.notes.append(
            f"stage {stage}: n={hist.count} mean={hist.mean_ns / 1e3:.1f}us "
            f"p50={hist.p50 / 1e3:.1f}us p95={hist.p95 / 1e3:.1f}us "
            f"p999={hist.p999 / 1e3:.1f}us (from request spans)")
    fig.check(
        "Request spans decompose every completed request into "
        "queue-wait + execute stages",
        bool(stages.get("total"))
        and len(stages["queue_wait"]) == len(stages["execute"])
        == len(stages["total"]),
        f"spans={len(stages.get('total', []))}")


def service_scenario(volume: int | None = None) -> FigureResult:
    """Concurrent EC service under faults: Eq. (1) admission + retries.

    ``volume`` overrides per-object payload bytes (default 1 KiB).
    """
    payload = volume or 1024
    fig = FigureResult(
        "service_scenario",
        "EC service under concurrent traffic, transient faults and one "
        "device loss (RS(12,8) 1KB)",
        ["completed", "rejected", "below_cap", "retries", "faults",
         "degraded", "p50_put_us", "p95_put_us", "p999_put_us",
         "peak_threads"])
    ambient = get_tracer()
    tracer = ambient if ambient.enabled else Tracer("service_scenario")
    with use_tracer(tracer):
        cap_detail = _client_sweep(fig, payload)
        _pressure_burst(fig)
    fig.check(
        "Admission rejections occur only while the Eq. (1) thread cap "
        "is saturated",
        all(vals["below_cap"] == 0 for _, vals in fig.rows),
        "; ".join(cap_detail))
    _stage_notes(fig, tracer)
    fig.notes.append(
        "Eq. (1) cap for RS(12,8) on the default testbed: "
        f"{ErasureCodingService(8, 4).admission.capacity_threads} threads "
        "(nthreads * k * 256B * ceil(d_max/(k+m)) <= 96KB read buffer).")
    return fig


ALL_SCENARIOS = {
    "service": service_scenario,
}
