#!/usr/bin/env python3
"""Scenario: a reliability drill on an erasure-coded PM store.

Exercises the full reliability loop the paper's introduction motivates
(§1-2): silent media bit flips, software scribbles and a whole-device
loss hit an object store protected by RS(6+3); checksum scrubbing
converts silent corruption into erasures; parity repairs everything;
and the coding work is costed on the simulated Optane testbed by the
EC service, which runs DIALGA for every put and degraded read.

Run:  python examples/fault_tolerance_drill.py
"""

import numpy as np

from repro import DialgaConfig, DialgaEncoder
from repro.pmstore import FaultInjector, Scrubber
from repro.service import ErasureCodingService, Request

rng = np.random.default_rng(2026)

# ----------------------------------------------------------- build store
K, M, BLOCK = 6, 3, 1024
svc = ErasureCodingService(
    K, M, block_bytes=BLOCK,
    library=DialgaEncoder(K, M, config=DialgaConfig(use_probe=False)))
store = svc.store
print(f"PM store: RS({K + M},{K}), {BLOCK} B blocks, "
      f"{M / K:.0%} space overhead, per-block CRC32\n")

originals = {}
for i in range(24):
    key = f"record/{i:03d}"
    value = rng.integers(0, 256, int(rng.integers(200, 1400)),
                         dtype=np.uint8).tobytes()
    originals[key] = value
    svc.submit(Request.put(key, value, arrival_ns=float(i)))
puts = svc.drain()
assert all(r.ok for r in puts)
print(f"stored {len(originals)} objects across {store.num_stripes} stripes "
      f"({store.stats.bytes_written} B)")

# ------------------------------------------------------------ the drill
inj = FaultInjector(store, seed=99)
print("\ninjecting faults:")
for _ in range(4):
    ev = inj.bit_flip(nbits=2)
    print(f"  silent bit flips   stripe {ev.stripe} block {ev.block}")
ev = inj.scribble(length=128)
print(f"  software scribble  stripe {ev.stripe} block {ev.block} ({ev.detail})")
events = inj.device_loss(2)
print(f"  device loss        block position 2 of all {len(events)} stripes")

# Degraded reads still work through parity while damage is outstanding.
probe = next(key for key in originals if store.is_degraded(key))
svc.submit(Request.get(probe, arrival_ns=svc.clock_ns))
(read,) = svc.drain()
assert read.ok and read.degraded and read.value == originals[probe]
print(f"\ndegraded read of {probe!r}: OK "
      f"({store.stats.degraded_reads} parity-path reads so far)")

# ------------------------------------------------------------- scrub/repair
report = Scrubber(store).scrub()
print("\nscrub pass:")
print(f"  stripes scanned      {report.stripes_scanned}")
print(f"  corrupt blocks found {len(report.corrupt_blocks)} "
      f"{report.corrupt_blocks}")
print(f"  blocks repaired      {report.repaired_blocks}")
print(f"  unrepairable stripes {report.unrepairable_stripes or 'none'}")

survivors = sum(store.get(k) == v for k, v in originals.items())
print(f"\nverification: {survivors}/{len(originals)} objects bit-exact")
assert survivors == len(originals)
assert Scrubber(store).scrub().clean

# ------------------------------------------------------------ cost ledger
put_us = sum(r.latency_ns for r in puts) / 1e3
print("\nsimulated service time (DIALGA on the Optane testbed):")
print(f"  puts:          {put_us:8.1f} us over {len(puts)} puts, RS encode "
      f"included")
print(f"  degraded read: {read.latency_ns / 1e3:8.1f} us, RS decode included")
