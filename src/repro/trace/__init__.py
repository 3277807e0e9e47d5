"""Memory-access trace generation for coding kernels.

A *trace* is the cacheline-granular op stream a coding kernel performs:
loads of data lines, GF/XOR compute, non-temporal parity stores,
optional software prefetches, and a trailing fence. Generators here
mirror the access *schedules* of the real libraries (ISA-L's one-pass
row-major walk, decompose's multi-pass partial parities, bitmatrix
codes' packet XOR programs) and DIALGA's operator variants (pipelined
software prefetch, shuffle mapping, XPLine-granularity expansion).
"""

from repro.trace.ops import LOAD, STORE, SWPF, COMPUTE, FENCE, Trace, tile
from repro.trace.workload import Workload
from repro.trace.layout import StripeLayout
from repro.trace.isal_gen import isal_trace, IsalVariant
from repro.trace.xor_gen import xor_schedule_trace, xor_decomposed_trace
from repro.trace.validate import validate_isal_trace, TraceStats, TraceValidationError
from repro.trace.update_gen import update_trace
from repro.trace.period import detect_period, TracePeriod

__all__ = [
    "LOAD", "STORE", "SWPF", "COMPUTE", "FENCE",
    "Trace",
    "tile",
    "Workload",
    "StripeLayout",
    "isal_trace",
    "IsalVariant",
    "xor_schedule_trace",
    "xor_decomposed_trace",
    "validate_isal_trace",
    "TraceStats",
    "TraceValidationError",
    "update_trace",
    "detect_period",
    "TracePeriod",
]
