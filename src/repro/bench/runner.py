"""Sweep helpers: build library sets and run them over workloads."""

from __future__ import annotations

from repro.core.dialga import DialgaEncoder
from repro.libs import ISAL, ISALDecompose, Zerasure, Cerasure
from repro.libs.base import CodingLibrary, LibraryResult, UnsupportedWorkload
from repro.parallel.sweep import LIBRARIES
from repro.simulator import HardwareConfig
from repro.trace import Workload


def standard_libraries(k: int, m: int,
                       include=LIBRARIES) -> list[CodingLibrary]:
    """The paper's §5.1 comparison set for one code geometry."""
    out: list[CodingLibrary] = []
    for name in include:
        if name == "ISA-L":
            out.append(ISAL(k, m))
        elif name == "ISA-L-D":
            out.append(ISALDecompose(k, m))
        elif name == "Zerasure":
            out.append(Zerasure(k, m))
        elif name == "Cerasure":
            out.append(Cerasure(k, m))
        elif name == "DIALGA":
            out.append(DialgaEncoder(k, m))
        else:
            raise ValueError(f"unknown library {name!r}")
    return out


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

