"""One repetition of one workload, in a fresh interpreter.

    python3 hostbench/rep.py <workload> <seed> <traced: 0|1>

Prints one JSON object: the set-up and every timed segment, each with
the reference-loop times around it (see ``workloads.Stopwatch``), peak
RSS, the work done, failures (errors, failed requests and outputs that differ
from the pinned digests in ``digests.json``) and, when traced, the
per-layer metrics of :mod:`layers`. ``run.py`` starts one of these per
repetition so in-process memos (such as Zerasure's matrix search) are
paid inside every measurement, as a command-line user pays them.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import workloads  # noqa: E402


def check(name: str, seed: int, digests: dict) -> tuple[list, bool]:
    """Labels whose digest differs from its pin, and whether the seed
    is pinned at all."""
    with open(os.path.join(HERE, "digests.json")) as f:
        pins = json.load(f)[name]
    if name == "service_mix":
        expected = pins.get(str(seed))
        if expected is None:
            return [], False
        return ([] if digests["service"] == expected else ["service"]), True
    labels = sorted(set(pins) | set(digests))
    return [lb for lb in labels if pins.get(lb) != digests.get(lb)], True


def main(argv: list[str]) -> int:
    name, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    ref_before = workloads.reference_seconds()
    t0 = time.perf_counter()
    work = workloads.prepare(name, seed)
    setup = (time.perf_counter() - t0, ref_before,
             workloads.reference_seconds())
    watch = workloads.Stopwatch(ref=setup[2])
    rec = layers.install(layers.Recorder()) if traced else None
    out = work.run(watch)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bad, pinned = check(name, seed, out.pop("digests"))
    report = dict(out, setup=setup, segments=watch.segments,
                  peak_rss_mb=rss_mb,
                  failed=out["failed"] + len(bad), mismatched=bad[:8],
                  pinned=pinned)
    if rec is not None:
        rec.uninstall()
        rec.n["service.retries"] = out.get("retries", 0)
        rec.n["service.degraded_reads"] = out.get("degraded_reads", 0)
        report["layers"] = rec.metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
