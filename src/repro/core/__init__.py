"""DIALGA — the paper's contribution (§4).

An adaptive hardware/software prefetcher scheduler for erasure coding
on persistent memory, layered over the ISA-L kernel model:

* :class:`~repro.core.coordinator.AdaptiveCoordinator` (§4.1) — samples
  PMU-style counters and I/O patterns, switches strategy by thresholds.
* :mod:`repro.core.operator` (§4.2) — the lightweight operator: static
  shuffle mapping (fine-grained hardware-prefetcher switch) and
  branchless pipelined software-prefetch pointer construction.
* :mod:`repro.core.buffer_friendly` (§4.3) — PM read-buffer-friendly
  distances, XPLine-granularity expansion and the Eq. (1) distance cap.
* :class:`~repro.core.dialga.DialgaEncoder` — the public library facade
  (same interface as the baselines in :mod:`repro.libs`).
"""

from repro.core.policy import Policy
from repro.core.hillclimb import HillClimber
from repro.core.buffer_friendly import eq1_max_distance, bf_distances, thrash_thread_bound
from repro.core.coordinator import AdaptiveCoordinator
from repro.core.operator import static_shuffle_mapping, build_prefetch_pointers
from repro.core.dialga import DialgaConfig, DialgaEncoder

__all__ = [
    "Policy",
    "HillClimber",
    "eq1_max_distance",
    "bf_distances",
    "thrash_thread_bound",
    "AdaptiveCoordinator",
    "static_shuffle_mapping",
    "build_prefetch_pointers",
    "DialgaConfig",
    "DialgaEncoder",
]
