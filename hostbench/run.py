"""Host-cost benchmark of the ``repro`` package.

    python3 hostbench/run.py --workload NAME --seed N --seconds 40 --trace 0|1

Runs repetitions of one workload (see ``workloads.py``), each in a
fresh interpreter (``rep.py``), until ``--seconds`` have passed, then
reports medians over the repetitions, in reference seconds (see
:func:`segment_seconds` and ``README.md``). With ``--trace 0`` it reports the
end-to-end metrics of untraced repetitions; with ``--trace 1`` it
alternates traced and untraced repetitions and reports the per-layer
metrics of ``layers.py`` plus the tracing overhead.

Every repetition checks its simulated outputs against the digests in
``digests.json``. The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the exit code is
0 only when nothing failed. Repetitions run with the ``REPRO_*``
environment variables removed (no content cache, no scale factor, no
history ledger, no fault hooks), a fixed hash seed and one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

#: (name, unit, better) of every end-to-end metric.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_mb_per_s", "MB/s", "higher"),
    ("requests_per_s", "1/s", "higher"),
    ("puts_per_s", "1/s", "higher"),
    ("gets_per_s", "1/s", "higher"),
]

#: Minimum (untraced, traced) repetitions per run, keyed by --trace.
MIN_REPS = {False: (3, 0), True: (1, 2)}
#: A run never outlives this, whatever --seconds says.
HARD_LIMIT_S = 170.0


class RepError(RuntimeError):
    """A repetition crashed, timed out or printed no result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(name: str, seed: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), name, str(seed),
           "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RepError(f"repetition exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepError(f"repetition exited {proc.returncode}:\n"
                       + proc.stderr[-2000:])
    return json.loads(lines[-1])


def reference_scaled(seconds: float, ref_before: float,
                     ref_after: float) -> float:
    """Seconds as they would read on an idle host: scaled by how much
    slower than idle the reference loop ran around the measurement."""
    return seconds * workloads.REF_IDLE_S / ((ref_before + ref_after) / 2)


def segment_seconds(reps: list[dict], kind: str | None = None) -> float:
    """Sum over timed segments of each segment's median across reps.

    The host's speed drifts in episodes of seconds to minutes. Scaling
    each segment by the reference loop timed around it removes most of
    that drift; a median per segment keeps what remains of an episode
    that hit one segment of one repetition out of the total.
    """
    return sum(
        statistics.median(reference_scaled(*r["segments"][label][1:])
                          for r in reps)
        for label, (k, *_) in reps[0]["segments"].items()
        if kind is None or k == kind)


def end_to_end(reps: list[dict]) -> dict[str, float]:
    work = reps[0]  # every repetition of one seed does the same work
    wall = segment_seconds(reps)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(reference_scaled(*r["setup"])
                                     for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "sim_mb_per_s": work["sim_mb"] / wall,
        "requests_per_s": work["requests"] / wall,
        "puts_per_s": work["puts"] / segment_seconds(reps, "put"),
        "gets_per_s": work["gets"] / segment_seconds(reps, "get"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list]:
    """Medians of the traced layer metrics, plus any count that did not
    repeat exactly across the traced repetitions."""
    first = traced[0]["layers"]
    unstable = [name for name in layers.COUNTS if name in first
                and any(r["layers"][name] != first[name] for r in traced)]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in first}
    out["bench.trace_overhead_s"] = (segment_seconds(traced)
                                     - segment_seconds(untraced))
    return out, unstable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no repro package under {ROOT}/src", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    need_untraced, need_traced = MIN_REPS[trace]
    start = time.perf_counter()
    reps: dict[bool, list[dict]] = {False: [], True: []}
    durations: dict[bool, list[float]] = {False: [], True: []}
    while True:
        # With --trace 1, alternate traced and untraced repetitions so
        # both see the same host conditions.
        traced = trace and len(reps[True]) <= len(reps[False])
        elapsed = time.perf_counter() - start
        t0 = time.perf_counter()
        try:
            rep = run_rep(args.workload, args.seed, traced,
                          timeout=max(1.0, HARD_LIMIT_S - elapsed))
        except RepError as exc:
            print(exc, file=sys.stderr)
            return 2
        reps[traced].append(rep)
        durations[traced].append(time.perf_counter() - t0)
        enough = (len(reps[False]) >= need_untraced
                  and len(reps[True]) >= need_traced)
        nxt = trace and len(reps[True]) <= len(reps[False])
        expected = statistics.median(durations[nxt] or durations[traced])
        if enough and (time.perf_counter() - start + expected
                       > args.seconds):
            break

    every = reps[False] + reps[True]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    correct = failed == 0
    for r in every:
        if r["mismatched"]:
            print(f"digest mismatch: {', '.join(r['mismatched'])}",
                  file=sys.stderr)
    if not every[0]["pinned"]:
        print(f"seed {args.seed} has no pinned digest; outputs checked "
              "functionally only", file=sys.stderr)

    if trace:
        metrics, unstable = per_layer(reps[True], reps[False])
        units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
        if unstable:
            correct = False
            print(f"counts differ between traced runs: {unstable}",
                  file=sys.stderr)
    else:
        metrics = end_to_end(reps[False])
        units = {name: unit for name, unit, _ in END_TO_END}

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"reps={len(reps[False])} untraced + {len(reps[True])} traced")
    for name, value in metrics.items():
        print(f"  {name:30s} {value:16.6f} {units[name]}")
    print(f"  {'fail_frac':30s} {failed / attempted:16.6f} fraction "
          f"({failed} of {attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
