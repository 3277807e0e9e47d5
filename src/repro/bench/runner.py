"""Sweep helpers: build library sets and run them over workloads."""

from __future__ import annotations

from repro.libs.base import CodingLibrary, LibraryResult, UnsupportedWorkload
from repro.parallel.sweep import LIBRARIES, LIBRARY_CLASSES
from repro.simulator import HardwareConfig
from repro.trace import Workload


def standard_libraries(k: int, m: int,
                       include=LIBRARIES) -> list[CodingLibrary]:
    """The paper's §5.1 comparison set for one code geometry."""
    unknown = [name for name in include if name not in LIBRARY_CLASSES]
    if unknown:
        raise ValueError(f"unknown library {unknown[0]!r}")
    return [LIBRARY_CLASSES[name](k, m) for name in include]


def run_libraries(wl: Workload, libs: list[CodingLibrary],
                  hw: HardwareConfig | None = None) -> dict[str, LibraryResult | None]:
    """Run every library on the workload; unsupported ones map to None
    (rendered as the paper's "missing results")."""
    hw = hw or HardwareConfig()
    out: dict[str, LibraryResult | None] = {}
    for lib in libs:
        try:
            out[lib.name] = lib.run(wl, hw)
        except UnsupportedWorkload:
            out[lib.name] = None
    return out

