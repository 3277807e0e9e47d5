"""Fast-forward acceptance scenario: exactness and speedup gates.

``python -m repro.bench fastforward`` runs representative workloads
twice — plain interpretation vs steady-state fast-forward
(:mod:`repro.simulator.fastforward`) — and gates the contract:

* **byte-identical** results on every workload (full counter set,
  makespan, data volume — ``SimResult`` equality);
* **>= 5x wall-clock speedup** on a fig-10-style long encode, where
  thousands of stripe periods collapse into a handful of exact jumps;
* **graceful decline** on aperiodic work (the parity-update trace has
  a per-stripe rotating layout with no constant stride): detection
  falls back to plain interpretation and skips nothing.

The speedup and skip gates apply only from :data:`GATE_STRIPES` long
encode stripes: below that, warmup periods every path must interpret
dominate, so shrunk runs check exactness only. The wall-clock columns
are declared ``host_columns``.
"""

from __future__ import annotations

import time

from repro.bench.report import FigureResult
from repro.parallel.cache import sim_cache
from repro.simulator import HardwareConfig, simulate
from repro.trace import IsalVariant, Workload, isal_trace
from repro.trace.update_gen import update_trace

#: Required wall-clock advantage on the long periodic encode.
MIN_SPEEDUP = 5.0
#: Stripes the long encode needs before the speedup gate applies
#: (below this, warmup periods dominate both paths).
GATE_STRIPES = 4800
#: Stripes the secondary periodic rows need before their engagement
#: gate applies (steady state needs the cache warm: ~130 stripes).
ENGAGE_STRIPES = 300


def _stripe_volume(stripes: int, wl_k: int = 8,
                   block_bytes: int = 1024) -> int:
    return stripes * wl_k * block_bytes


def _encode_trace(cpu, stripes: int, *, op: str = "encode",
                  erasures: int = 0, swpf: int = 0):
    wl = Workload(k=8, m=4, block_bytes=1024,
                  data_bytes_per_thread=_stripe_volume(stripes),
                  op=op, erasures=erasures)
    return isal_trace(wl, cpu, variant=IsalVariant(sw_prefetch_distance=swpf))


def _row(fig: FigureResult, label: str, trace, hw) -> dict:
    """Run one workload both ways; returns the numbers for checks.

    The memo is off: both paths must really run to be timed."""
    with sim_cache(None):
        t0 = time.perf_counter()
        plain = simulate(trace, hw, fastforward=False)
        t1 = time.perf_counter()
        fast = simulate(trace, hw, fastforward=True)
        t2 = time.perf_counter()
    interp_s, ff_s = t1 - t0, t2 - t1
    stats = fast.fastforward or {}
    out = {
        "identical": (plain == fast
                      and plain.counters == fast.counters
                      and plain.makespan_ns == fast.makespan_ns),
        "interp_s": interp_s,
        "ff_s": ff_s,
        "speedup": interp_s / ff_s if ff_s > 0 else float("inf"),
        "skipped": stats.get("periods_skipped", 0),
        "total": stats.get("periods_total", 0),
        "jumps": stats.get("jumps", 0),
        "reason": stats.get("reason"),
    }
    fig.add_row(label, **{c: out[c] for c in fig.columns})
    return out


def fastforward_scenario(volume: int | None = None,
                         seed: int = 0) -> FigureResult:
    """Fast-forward vs interpretation: byte-identity, >=5x long-encode
    speedup, aperiodic fallback."""
    hw = HardwareConfig()
    long_bytes = volume if volume is not None else _stripe_volume(9600)
    long_stripes = max(1, long_bytes // _stripe_volume(1))
    side_stripes = max(1, min(2400, long_stripes // 4))

    fig = FigureResult(
        fig_id="fastforward_scenario",
        title="Steady-state fast-forward: exactness and speedup",
        columns=["interp_s", "ff_s", "speedup", "skipped", "total",
                 "jumps", "identical"],
        host_columns=["interp_s", "ff_s", "speedup"])

    rows = {
        "encode_long": _row(fig, "encode_long",
                            _encode_trace(hw.cpu, long_stripes), hw),
        "encode_swpf": _row(fig, "encode_swpf",
                            _encode_trace(hw.cpu, side_stripes, swpf=4),
                            hw),
        "decode_degraded": _row(fig, "decode_degraded",
                                _encode_trace(hw.cpu, side_stripes,
                                              op="decode", erasures=2),
                                hw),
    }
    wl_update = Workload(k=8, m=4, block_bytes=1024,
                         data_bytes_per_thread=_stripe_volume(64))
    rows["update_aperiodic"] = _row(fig, "update_aperiodic",
                                    update_trace(wl_update, hw.cpu), hw)

    fig.check(
        "fast-forward is byte-identical to interpretation on every "
        "workload (counters, makespan, SimResult equality)",
        all(r["identical"] for r in rows.values()),
        ", ".join(f"{k}={'ok' if r['identical'] else 'DIFFERS'}"
                  for k, r in rows.items()))

    long_row = rows["encode_long"]
    if long_stripes >= GATE_STRIPES:
        fig.check(
            f"long encode fast-forward speedup >= {MIN_SPEEDUP:.0f}x",
            long_row["speedup"] >= MIN_SPEEDUP,
            f"over {long_stripes} stripes")
        fig.check(
            "long encode skips >= 90% of stripe periods",
            long_row["skipped"] >= 0.9 * long_row["total"],
            f"{long_row['skipped']}/{long_row['total']} in "
            f"{long_row['jumps']} jumps")
    else:
        fig.notes.append(
            f"speedup/skip gates need >= {GATE_STRIPES} stripes "
            f"(got {long_stripes}; volume shrunk) — exactness still "
            "checked")
    for label in ("encode_swpf", "decode_degraded"):
        r = rows[label]
        if r["total"] >= ENGAGE_STRIPES:
            fig.check(
                f"{label} engages steady-state skipping",
                r["skipped"] > 0,
                f"{r['skipped']}/{r['total']} periods, "
                f"{r['jumps']} jumps")

    upd = rows["update_aperiodic"]
    fig.check(
        "aperiodic update trace never engages (exact fallback)",
        upd["skipped"] == 0 and upd["jumps"] == 0,
        f"reason={upd['reason']!r}")

    fig.notes.append(
        "fast-forward wall time is nearly flat in trace length: binade "
        "re-validations grow logarithmically, so speedup scales with "
        "volume")
    return fig


ALL_FASTFORWARD_SCENARIOS = {
    "fastforward": fastforward_scenario,
}
