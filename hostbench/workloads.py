"""The benchmark's workloads, driven through the public ``repro`` API.

Each workload is built from a seed in two steps: ``prepare(name,
seed)`` does the imports and constructs the inputs (its time is
``setup_s``), and the returned object's ``run(watch)`` does the
measured work in timed segments and returns the work done plus a
digest of every simulated output.

* ``sweep_1t`` — single-thread encode and decode (4 erasures) sweeps:
  ISA-L, ISA-L-D and DIALGA over k in {4..64}, plus Zerasure and
  Cerasure on narrow stripes. One segment per geometry.
* ``scale_mt`` — fig13-style multicore scaling: ISA-L, ISA-L-D and
  DIALGA over k in {24, 48} at 4, 8 and 16 threads, encode and decode.
* ``service_mix`` — the EC service under a seeded put wave with
  transient faults, a device loss, then a degraded get wave. One
  segment per wave, each a single ``drain()``.

The sweeps report encode cells as ``puts`` and decode cells as
``gets``, so all workloads share one set of end-to-end metrics.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

RS_LIBS = ("ISA-L", "ISA-L-D", "DIALGA")
XOR_LIBS = ("Zerasure", "Cerasure")
WIDTHS = (4, 8, 16, 24, 32, 48, 64)

#: Sweep groups: (libraries, k values, thread counts, bytes per thread).
#: The fixed ISA-L kernels get enough stripes for fast-forward to
#: engage on narrow stripes; DIALGA's cost is mostly its probes.
SWEEPS = {
    "sweep_1t": [
        (("ISA-L", "ISA-L-D"), WIDTHS, (1,), 1 << 20),
        (("DIALGA",), WIDTHS, (1,), 256 * 1024),
        (XOR_LIBS, (4, 8, 16), (1,), 64 * 1024),
    ],
    "scale_mt": [
        (RS_LIBS, (24, 48), (4, 8, 16), 40 * 1024),
    ],
}

#: Service traffic: clients x objects of PAYLOAD bytes each, with
#: exponential arrival gaps of mean GAP_NS, sized so that no request is
#: refused at the Eq. (1) admission cap. A wave drains in one call:
#: draining it in parts would let each part arrive as one burst.
NCLIENTS, OBJECTS, PAYLOAD, GAP_NS = 32, 16, 4096, 70_000.0

M, ERASURES, BLOCK = 4, 4, 1024

#: Iterations of the reference loop, and its time on an idle host (a
#: 2-vCPU x86-64 cloud VM, Python 3.11); it only sets the time scale.
REF_LOOPS = 100_000
REF_IDLE_S = 0.0064


def reference_seconds() -> float:
    """Time a fixed pure-Python loop that does not touch ``repro``.

    Timed next to every segment, it tracks how fast the host runs
    Python at that moment; ``run.py`` scales each segment by it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


class Stopwatch:
    """Times labelled segments, each between two reference loops."""

    def __init__(self, ref: float | None = None):
        self.segments: dict[str, tuple[str, float, float, float]] = {}
        self._ref = reference_seconds() if ref is None else ref

    @contextmanager
    def segment(self, label: str, kind: str):
        """Time one segment; ``kind`` is ``put`` or ``get``."""
        before = self._ref
        t0 = time.perf_counter()
        yield
        seconds = time.perf_counter() - t0
        self._ref = reference_seconds()
        self.segments[label] = (kind, seconds, before, self._ref)


class SweepRun:
    """Encode then decode sweeps, one ``run_sweep`` per geometry, in an
    order the seed permutes."""

    def __init__(self, name: str, seed: int):
        from repro.parallel import SweepSpec
        from repro.trace import Workload

        rng = random.Random(seed)
        self.specs = {}
        for op in ("encode", "decode"):
            specs = [
                SweepSpec(libraries=libs, workloads=[Workload(
                    k=k, m=M, block_bytes=BLOCK, nthreads=nt,
                    data_bytes_per_thread=volume, op=op,
                    erasures=ERASURES if op == "decode" else 0)])
                for libs, ks, threads, volume in SWEEPS[name]
                for k in ks for nt in threads]
            # Digests are compared per cell, so they do not depend on
            # this order.
            rng.shuffle(specs)
            self.specs[op] = specs

    def run(self, watch: Stopwatch) -> dict:
        from repro import parallel

        cells = {}
        for op, kind in (("encode", "put"), ("decode", "get")):
            for spec in self.specs[op]:
                wl = spec.workloads[0]
                geometry = f"k{wl.k}/t{wl.nthreads}"
                with watch.segment(f"{op}:{'+'.join(spec.libraries)}/"
                                   f"{geometry}", kind):
                    result = parallel.run_sweep(spec, workers=1)
                for cell in result.results:
                    cells[f"{cell.library}/{geometry}/{op}"] = cell

        digests, failed = {}, 0
        for label, cell in cells.items():
            if cell.error is not None or not cell.supported:
                failed += 1
            digests[label] = parallel.fingerprint({
                "supported": cell.supported,
                "error": cell.error,
                "throughput_gbps": cell.throughput_gbps,
                "makespan_ns": cell.makespan_ns,
                "data_bytes": cell.data_bytes,
                "counters": (cell.counters.nonzero_dict()
                             if cell.counters is not None else None),
            })
        return {
            "puts": sum(c.workload.op == "encode" for c in cells.values()),
            "gets": sum(c.workload.op == "decode" for c in cells.values()),
            "requests": len(cells),
            "sim_mb": sum(c.data_bytes for c in cells.values()) / 1e6,
            "attempted": len(cells),
            "failed": failed,
            "digests": digests,
        }


class ServiceRun:
    """Put wave under transient faults, device loss, degraded get wave."""

    def __init__(self, seed: int):
        from repro.pmstore import FaultInjector
        from repro.service import ErasureCodingService, put_wave

        self.seed = seed
        self.svc = ErasureCodingService(8, M, block_bytes=BLOCK)
        injector = FaultInjector(self.svc.store, seed=seed)
        self.svc.store.add_fault_hook(
            injector.transient_hook(rate=0.1, ops=("put",)))
        self.puts = put_wave(NCLIENTS, OBJECTS, payload_bytes=PAYLOAD,
                             mean_gap_ns=GAP_NS, seed=2 * seed)

    def _drain(self, watch: Stopwatch, requests: list, kind: str) -> list:
        """Submit one wave and drain it as one timed segment."""
        with watch.segment(kind, kind):
            self.svc.submit_many(requests)
            return self.svc.drain()

    def run(self, watch: Stopwatch) -> dict:
        from repro.parallel import fingerprint
        from repro.service import get_wave

        svc = self.svc
        put_results = self._drain(watch, self.puts, "put")
        svc.store.mark_device_lost(1)
        gets = get_wave(NCLIENTS, OBJECTS, mean_gap_ns=GAP_NS,
                        start_ns=svc.clock_ns + 1e4, seed=2 * self.seed + 1)
        get_results = self._drain(watch, gets, "get")

        payloads = {req.key: req.payload for req in self.puts}
        failed = sum(not r.ok for r in put_results)
        failed += sum(not r.ok or r.value != payloads.get(r.request.key)
                      for r in get_results)
        results = put_results + get_results
        digest = fingerprint([
            [[r.request.kind.value, r.request.key, r.status.value,
              r.retries, r.latency_ns, r.degraded] for r in results],
            svc.store.state_digest(),
        ])
        moved = sum(len(r.request.payload) for r in put_results if r.ok)
        moved += sum(len(r.value) for r in get_results if r.ok)
        return {
            "puts": len(put_results),
            "gets": len(get_results),
            "requests": len(results),
            "sim_mb": moved / 1e6,
            "attempted": len(results),
            "failed": failed,
            "digests": {"service": digest},
            "retries": svc.metrics.count("retries"),
            "degraded_reads": svc.metrics.count("degraded_reads"),
        }


#: Workload name -> one-line reason it was chosen.
WORKLOADS = {
    "sweep_1t": "single-thread encode+decode sweep: run() loop, "
                "fast-forward, trace generation, cold XOR schedule "
                "search and DIALGA probes; probes rarely repeat",
    "scale_mt": "fig13-style 4/8/16-thread scaling: the op-by-op "
                "multicore interpreter and DIALGA probes re-climbed at "
                "every thread count; fast-forward is off",
    "service_mix": "EC service puts (RS encode + WAL) under transient "
                   "faults, then degraded gets (RS decode): ~800 tiny, "
                   "mostly repeated coding jobs; no probes, no multicore",
}


def prepare(name: str, seed: int):
    """Build workload ``name`` for ``seed`` (the timed set-up)."""
    if name == "service_mix":
        return ServiceRun(seed)
    return SweepRun(name, seed)
