"""Memory-hierarchy simulator (the paper's hardware testbed, in Python).

This package is the substitution for the hardware the paper runs on
(DESIGN.md §2): an Intel Xeon with a trainable L2 stream prefetcher and
Intel Optane DCPMM with its 256B-XPLine on-DIMM read buffer. Coding
kernels are expressed as cacheline-granular op traces
(:mod:`repro.trace`); the engine executes them with cycle/ns accounting
against configurable cache, prefetcher, DRAM and PM models, exposing
PMU-style counters that DIALGA's coordinator consumes.

Public API
----------
``HardwareConfig`` and its sub-configs  — the testbed knobs
``Counters``                            — PMU-style event counters
``simulate`` / ``SimResult``            — run 1..N thread traces
``StreamPrefetcher``, ``CoreCache``, ``PMReadBuffer`` — inspectable parts
"""

from repro.simulator.params import (
    CPUConfig,
    CacheConfig,
    PrefetcherConfig,
    DRAMConfig,
    PMConfig,
    HardwareConfig,
)
from repro.simulator.counters import Counters
from repro.simulator.cache import CoreCache
from repro.simulator.streamprefetcher import StreamPrefetcher
from repro.simulator.readbuffer import PMReadBuffer
from repro.simulator.memory import DRAMBackend, PMBackend
from repro.simulator.engine import ThreadContext
from repro.simulator.fastforward import run_fastforward
from repro.simulator.multicore import SimResult, simulate
from repro.simulator.presets import PRESETS, get_preset
from repro.simulator.profiler import perf_report

# Last, once every name above is bound: importing the memo's module
# installs the process-wide SimCache in ``multicore._SIM_CACHE``, so
# every process that can simulate memoizes, whichever ``repro`` module
# it imported first.
from repro.parallel import cache as _sim_memo  # noqa: E402,F401

__all__ = [
    "CPUConfig",
    "CacheConfig",
    "PrefetcherConfig",
    "DRAMConfig",
    "PMConfig",
    "HardwareConfig",
    "Counters",
    "CoreCache",
    "StreamPrefetcher",
    "PMReadBuffer",
    "DRAMBackend",
    "PMBackend",
    "ThreadContext",
    "run_fastforward",
    "simulate",
    "SimResult",
    "PRESETS",
    "get_preset",
    "perf_report",
]
