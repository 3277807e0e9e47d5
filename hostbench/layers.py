"""Per-layer host timing for the traced benchmark run.

:func:`install` wraps the public functions of each ``repro`` layer at
the attributes where their callers look them up (class attributes and
importing-module globals), so every call into a layer passes through a
timer owned by a :class:`Recorder`. Nothing here runs unless a traced
repetition installs it; the untraced repetitions measure the program
as shipped.

Times are inclusive: a probe simulation counts in ``core.probe_s``,
``simulator.single_s`` and ``trace.gen_s`` alike. Counts are exact and
repeat run to run for one seed.

:data:`PER_LAYER` is the single list of per-layer metrics. Each entry
names the end-to-end metric and workload it is expected to move, which
``README.md`` in this directory renders and ``BENCHMARK.json`` mirrors.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

#: (name, unit, better, expected to move) for every per-layer metric.
PER_LAYER = [
    ("core.probe_calls", "count", "lower",
     "scale_mt sim_mb_per_s; little on sweep_1t; 0 on service_mix"),
    ("core.probe_s", "s", "lower", "scale_mt sim_mb_per_s"),
    ("core.probe_sim_calls", "count", "lower", "scale_mt sim_mb_per_s"),
    ("core.probe_dup_frac", "fraction", "lower",
     "scale_mt sim_mb_per_s (sweep_1t: few duplicates)"),
    ("simulator.single_calls", "count", "lower", "sweep_1t sim_mb_per_s"),
    ("simulator.single_s", "s", "lower", "sweep_1t sim_mb_per_s"),
    ("simulator.single_ops_per_s", "1/s", "higher", "sweep_1t sim_mb_per_s"),
    ("simulator.multi_calls", "count", "lower", "scale_mt sim_mb_per_s"),
    ("simulator.multi_s", "s", "lower", "scale_mt sim_mb_per_s"),
    ("simulator.multi_ops_per_s", "1/s", "higher", "scale_mt sim_mb_per_s"),
    ("simulator.ff_engaged_frac", "fraction", "higher",
     "sweep_1t sim_mb_per_s"),
    ("simulator.ff_skip_frac", "fraction", "higher", "sweep_1t sim_mb_per_s"),
    ("simulator.dup_frac", "fraction", "lower",
     "scale_mt sim_mb_per_s; service_mix requests_per_s"),
    ("trace.gen_calls", "count", "lower", "all workloads' wall_s"),
    ("trace.gen_s", "s", "lower", "all workloads' wall_s"),
    ("trace.ops", "count", "lower", "all workloads' wall_s"),
    ("trace.ops_per_s", "1/s", "higher", "all workloads' wall_s"),
    ("trace.xor_s", "s", "lower", "sweep_1t wall_s"),
    ("libs.run_calls", "count", "lower", "sweeps' requests_per_s"),
    ("libs.run_s", "s", "lower", "sweeps' requests_per_s"),
    ("parallel.overhead_s", "s", "lower", "sweeps' wall_s"),
    ("codes.encode_calls", "count", "lower", "service_mix puts_per_s"),
    ("codes.encode_mb_per_s", "MB/s", "higher", "service_mix puts_per_s"),
    ("codes.decode_calls", "count", "lower", "service_mix gets_per_s"),
    ("codes.decode_mb_per_s", "MB/s", "higher", "service_mix gets_per_s"),
    ("pmstore.put_calls", "count", "lower", "service_mix puts_per_s"),
    ("pmstore.put_s", "s", "lower", "service_mix puts_per_s"),
    ("pmstore.get_calls", "count", "lower", "service_mix gets_per_s"),
    ("pmstore.get_s", "s", "lower", "service_mix gets_per_s"),
    ("pmstore.wal_txns", "count", "lower", "service_mix puts_per_s"),
    ("pmstore.wal_s", "s", "lower", "service_mix puts_per_s"),
    ("pmstore.wal_bytes", "B", "lower", "service_mix puts_per_s"),
    ("service.drain_s", "s", "lower", "service_mix requests_per_s"),
    ("service.coding_calls", "count", "lower", "service_mix requests_per_s"),
    ("service.coding_s", "s", "lower", "service_mix requests_per_s"),
    ("service.coding_dup_frac", "fraction", "lower",
     "service_mix requests_per_s"),
    ("service.retries", "count", "lower", "service_mix requests_per_s"),
    ("service.degraded_reads", "count", "lower",
     "service_mix requests_per_s"),
    ("bench.trace_overhead_s", "s", "lower",
     "none: traced wall_s minus untraced wall_s"),
]

#: Per-layer metrics that are exact counts (must repeat for one seed).
COUNTS = [name for name, unit, _, _ in PER_LAYER
          if unit in ("count", "B") or name.endswith("_dup_frac")]


class Recorder:
    """Call counts and host seconds per layer, for one traced run."""

    def __init__(self):
        self.n: dict[str, int] = defaultdict(int)
        self.s: dict[str, float] = defaultdict(float)
        self._keys: dict[str, set] = defaultdict(set)
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list = []

    def seen(self, family: str, key) -> None:
        """Record ``key`` in ``family``, counting repeats of earlier keys."""
        self.n[family] += 1
        keys = self._keys[family]
        if key in keys:
            self.n[f"{family}.dups"] += 1
        keys.add(key)

    def inside(self, scope: str) -> bool:
        return self._depth[scope] > 0

    @contextmanager
    def scope(self, name: str):
        """Time the outermost entry into ``name``; nested entries (a
        probe called inside a climb) add no time of their own."""
        self._depth[name] += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._depth[name] -= 1
            if self._depth[name] == 0:
                self.s[name] += time.perf_counter() - t0

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until
        :meth:`uninstall`."""
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``bench.trace_overhead_s``."""
        n, s = self.n, self.s

        def ratio(a, b):
            return a / b if b else 0.0

        single = n["sim.single"]
        return {
            "core.probe_calls": n["core.probe"],
            "core.probe_s": s["core.probe"],
            "core.probe_sim_calls": n["probe_sim"],
            "core.probe_dup_frac": ratio(n["probe_sim.dups"], n["probe_sim"]),
            "simulator.single_calls": single,
            "simulator.single_s": s["sim.single"],
            "simulator.single_ops_per_s": ratio(n["sim.single_ops"],
                                                s["sim.single"]),
            "simulator.multi_calls": n["sim.multi"],
            "simulator.multi_s": s["sim.multi"],
            "simulator.multi_ops_per_s": ratio(n["sim.multi_ops"],
                                               s["sim.multi"]),
            "simulator.ff_engaged_frac": ratio(n["sim.ff_engaged"], single),
            "simulator.ff_skip_frac": ratio(n["sim.ff_skipped"],
                                            n["sim.ff_periods"]),
            "simulator.dup_frac": ratio(n["sim_key.dups"], n["sim_key"]),
            "trace.gen_calls": n["trace.gen"],
            "trace.gen_s": s["trace.gen"],
            "trace.ops": n["trace.ops"],
            "trace.ops_per_s": ratio(n["trace.ops"], s["trace.gen"]),
            "trace.xor_s": s["trace.xor"],
            "libs.run_calls": n["libs.run"],
            "libs.run_s": s["libs.run"],
            "parallel.overhead_s": s["parallel.run_sweep"]
            - s["libs.run_in_sweep"],
            "codes.encode_calls": n["codes.encode"],
            "codes.encode_mb_per_s": ratio(n["codes.encode_bytes"] / 1e6,
                                           s["codes.encode"]),
            "codes.decode_calls": n["codes.decode"],
            "codes.decode_mb_per_s": ratio(n["codes.decode_bytes"] / 1e6,
                                           s["codes.decode"]),
            "pmstore.put_calls": n["pmstore.put"],
            "pmstore.put_s": s["pmstore.put"],
            "pmstore.get_calls": n["pmstore.get"],
            "pmstore.get_s": s["pmstore.get"],
            "pmstore.wal_txns": n["pmstore.wal_txns"],
            "pmstore.wal_s": s["pmstore.wal"],
            "pmstore.wal_bytes": n["pmstore.wal_bytes"],
            "service.drain_s": s["service.drain"],
            "service.coding_calls": n["coding"],
            "service.coding_s": s["service.coding"],
            "service.coding_dup_frac": ratio(n["coding.dups"], n["coding"]),
            "service.retries": n["service.retries"],
            "service.degraded_reads": n["service.degraded_reads"],
        }


def _timed(rec: Recorder, name: str):
    """Wrapper factory: count calls to and seconds inside one function."""
    def make(original):
        def wrapper(*args, **kwargs):
            rec.n[name] += 1
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                rec.s[name] += time.perf_counter() - t0
        return wrapper
    return make


def install(rec: Recorder) -> Recorder:
    """Wrap every layer's entry points with timers feeding ``rec``."""
    import repro.core.dialga as dialga_mod
    import repro.libs.base as libs_base
    import repro.libs.isal as isal_mod
    import repro.libs.isal_decompose as isald_mod
    import repro.parallel as parallel
    from repro.codes.rs import RSCode
    from repro.core.dialga import DialgaEncoder
    from repro.libs import Cerasure, Zerasure
    from repro.libs.base import CodingLibrary
    from repro.parallel import fingerprint, sim_key
    from repro.pmstore.store import PMStore
    from repro.pmstore.wal import StripeWAL
    from repro.service.service import ErasureCodingService
    from repro.simulator import HardwareConfig
    from repro.trace import Trace

    # repro.simulator: simulate(), looked up by libs.base and core.dialga.
    def wrap_simulate(original):
        def simulate(trace=None, hardware=None, **kwargs):
            contexts = kwargs.get("contexts")
            key = None
            if contexts is None:
                traces = [trace] if isinstance(trace, Trace) else list(trace)
                if not isinstance(trace, Trace):
                    trace = traces
                threads = kwargs.get("threads")
                if threads and len(traces) == 1:
                    traces = traces * threads
                live = len(traces)
                ops = sum(len(t) for t in traces)
                ff = kwargs.get("fastforward")
                key = sim_key(traces, hardware or HardwareConfig(),
                              kwargs.get("batch_ops", 1),
                              live == 1 if ff is None else ff)
            else:
                live = sum(1 for ctx in contexts if not ctx.done)
                ops = sum(len(ctx.trace) - ctx.pc for ctx in contexts)
            kind = "sim.single" if live == 1 else "sim.multi"
            t0 = time.perf_counter()
            result = original(trace, hardware, **kwargs)
            rec.s[kind] += time.perf_counter() - t0
            rec.n[kind] += 1
            rec.n[kind + "_ops"] += ops
            ff_stats = result.fastforward
            if ff_stats is not None:
                rec.n["sim.ff_engaged"] += int(bool(ff_stats["engaged"]))
                rec.n["sim.ff_periods"] += ff_stats["periods_total"]
                rec.n["sim.ff_skipped"] += ff_stats["periods_skipped"]
            if key is not None:
                rec.seen("sim_key", key)
                if rec.inside("core.probe"):
                    rec.seen("probe_sim", key)
            return result
        return simulate

    rec.patch(libs_base, "simulate", wrap_simulate)
    rec.patch(dialga_mod, "simulate", wrap_simulate)

    # repro.core: the coordinator's hill-climb probes.
    def wrap_probe(probe):
        if probe is None:
            return None

        @functools.wraps(probe)
        def timed_probe(arg):
            with rec.scope("core.probe"):
                return probe(arg)
        return timed_probe

    def wrap_coordinator_for(original):
        def coordinator_for(self, wl, hw):
            if not self.use_probe:
                return original(self, wl, hw)
            rec.n["core.probe"] += 1
            with rec.scope("core.probe"):
                coord = original(self, wl, hw)
            # Runtime re-climbs call these later, outside this scope.
            coord.probe = wrap_probe(coord.probe)
            coord.policy_probe = wrap_probe(coord.policy_probe)
            return coord
        return coordinator_for

    rec.patch(DialgaEncoder, "coordinator_for", wrap_coordinator_for)

    # repro.trace (+ repro.xorsched): trace generation.
    def wrap_trace(xor: bool):
        def make(original):
            def trace(*args, **kwargs):
                t0 = time.perf_counter()
                out = original(*args, **kwargs)
                dt = time.perf_counter() - t0
                rec.n["trace.gen"] += 1
                rec.s["trace.gen"] += dt
                rec.n["trace.ops"] += len(out)
                if xor:
                    rec.s["trace.xor"] += dt
                return out
            return trace
        return make

    for module in (isal_mod, isald_mod, dialga_mod):
        rec.patch(module, "isal_trace", wrap_trace(xor=False))
    for cls in (Zerasure, Cerasure):
        rec.patch(cls, "trace", wrap_trace(xor=True))

    # repro.libs: library runs; inside a drain they are coding jobs.
    def wrap_run(original):
        def run(self, workload=None, hardware=None, **kwargs):
            t0 = time.perf_counter()
            out = original(self, workload, hardware, **kwargs)
            dt = time.perf_counter() - t0
            rec.n["libs.run"] += 1
            rec.s["libs.run"] += dt
            if rec.inside("parallel.run_sweep"):
                rec.s["libs.run_in_sweep"] += dt
            if rec.inside("service.drain"):
                rec.s["service.coding"] += dt
                rec.seen("coding", fingerprint([workload, hardware]))
            return out
        return run

    rec.patch(CodingLibrary, "run", wrap_run)
    rec.patch(DialgaEncoder, "run", wrap_run)

    # repro.parallel: the sweep entry point, as the benchmark calls it.
    def wrap_run_sweep(original):
        def run_sweep(*args, **kwargs):
            with rec.scope("parallel.run_sweep"):
                return original(*args, **kwargs)
        return run_sweep

    rec.patch(parallel, "run_sweep", wrap_run_sweep)

    # repro.codes / repro.gf: the RS codec.
    def wrap_encode(original):
        def encode_blocks(self, data):
            t0 = time.perf_counter()
            out = original(self, data)
            rec.s["codes.encode"] += time.perf_counter() - t0
            rec.n["codes.encode"] += 1
            rec.n["codes.encode_bytes"] += data.nbytes
            return out
        return encode_blocks

    def wrap_decode(original):
        def decode(self, available, erased):
            t0 = time.perf_counter()
            out = original(self, available, erased)
            rec.s["codes.decode"] += time.perf_counter() - t0
            rec.n["codes.decode"] += 1
            block = len(next(iter(available.values())))
            rec.n["codes.decode_bytes"] += self.k * block
            return out
        return decode

    rec.patch(RSCode, "encode_blocks", wrap_encode)
    rec.patch(RSCode, "decode", wrap_decode)

    # repro.pmstore: object puts/gets and the stripe WAL.
    rec.patch(PMStore, "put", _timed(rec, "pmstore.put"))
    rec.patch(PMStore, "get", _timed(rec, "pmstore.get"))

    def wrap_wal(commit: bool):
        def make(original):
            def append(self, *args, **kwargs):
                head = self.bytes_logged
                t0 = time.perf_counter()
                out = original(self, *args, **kwargs)
                rec.s["pmstore.wal"] += time.perf_counter() - t0
                rec.n["pmstore.wal_bytes"] += self.bytes_logged - head
                rec.n["pmstore.wal_txns"] += int(commit)
                return out
            return append
        return make

    rec.patch(StripeWAL, "log_intent", wrap_wal(commit=False))
    rec.patch(StripeWAL, "log_commit", wrap_wal(commit=True))

    # repro.service: the event loop.
    def wrap_drain(original):
        def drain(self):
            with rec.scope("service.drain"):
                return original(self)
        return drain

    rec.patch(ErasureCodingService, "drain", wrap_drain)
    return rec
