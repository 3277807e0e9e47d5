#!/usr/bin/env python3
"""Audit the coordinator: every decision's evidence, then its regret.

Runs one high-pressure adaptive encode (the fig-10 regime where the
§4.1.2 thresholds fire), then:

1. pulls the full decision ledger off the coordinator — per decision:
   the counter deltas it saw, every threshold predicate it evaluated,
   the candidate policies it weighed, and what it chose;
2. replays every decision window under every candidate policy through
   the cached ``repro.simulate()`` (the counterfactual oracle)
   and prints per-decision regret plus the episode's
   oracle-normalized score.

Run:  python examples/decision_audit_demo.py
"""

from repro import DialgaConfig, DialgaEncoder, HardwareConfig, Workload
from repro.obs import (
    ledger_from_coordinator,
    replay_decisions,
)

hw = HardwareConfig()
wl = Workload(k=8, m=4, block_bytes=1024, nthreads=10)
wl = wl.with_(data_bytes_per_thread=120 * wl.stripe_data_bytes)

# ------------------------------------------- 1. the evidence trail
print("1. high-pressure adaptive encode (10 threads, k=8, m=4)")
enc = DialgaEncoder(8, 4, config=DialgaConfig(use_probe=False, chunks=6))
res = enc.run(wl, hw)
print(f"   {res.sim.data_bytes / res.sim.makespan_ns:.3f} GB/s, "
      f"{enc.policy_switches} policy switch(es)\n")

ledger = ledger_from_coordinator(enc.last_coordinator)
print(ledger.render())
switch = ledger.switches[0]
print("\n   the switch decision in full:")
for check in switch.checks:
    mark = "FIRED" if check.fired else "quiet"
    print(f"     {check.name:<12} value={check.value:10.4f}  "
          f"limit={check.limit:10.4f}  [{mark}]")
print(f"     candidates: "
      f"{' | '.join(p.describe() for p in switch.candidates)}")
print(f"     chose: {switch.chosen.describe()}\n")

# ------------------------------------------- 2. the counterfactual oracle
print("2. replaying every decision window under every candidate")
report = replay_decisions(ledger)
print(report.render())
print(f"   (replay cache: {report.cache_stats['hits']} hits, "
      f"{report.cache_stats['misses']} misses — candidate windows "
      "recur, so the oracle is nearly free)\n")

print("done: decisions audited, regret scored")
