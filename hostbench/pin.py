"""Re-pin the simulated-output digests that every repetition checks.

    python3 hostbench/pin.py

Sweep digests are per cell and do not depend on the seed (it only
permutes the cell order). Service digests cover per-request status,
retries, simulated latency and degradation plus the store's state
digest, for seeds 0..63; other seeds are checked functionally only.
Prints every digest that changed before writing ``digests.json``.
Re-pin only when a change is meant to alter simulated results.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

SERVICE_SEEDS = 64


def main() -> int:
    def digests(name, seed):
        out = workloads.prepare(name, seed).run(workloads.Stopwatch())
        if out["failed"]:
            raise SystemExit(f"{name} seed {seed}: {out['failed']} of "
                             f"{out['attempted']} operations failed; "
                             "not pinning")
        return out["digests"]

    pins = {name: digests(name, 0) for name in workloads.SWEEPS}
    pins["service_mix"] = {str(seed): digests("service_mix", seed)["service"]
                           for seed in range(SERVICE_SEEDS)}

    path = os.path.join(HERE, "digests.json")
    old = {}
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
    for name, table in pins.items():
        before = old.get(name, {})
        for key in sorted(set(table) | set(before)):
            if table.get(key) != before.get(key):
                print(f"{name} {key}: {before.get(key)} -> {table.get(key)}")
    with open(path, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
