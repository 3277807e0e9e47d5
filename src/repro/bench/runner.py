"""Sweep helpers: build library sets and run them over workloads."""

from __future__ import annotations

from repro.core.dialga import DialgaConfig, DialgaEncoder
from repro.libs import ISAL, ISALDecompose, Zerasure, Cerasure
from repro.libs.base import CodingLibrary, LibraryResult, UnsupportedWorkload
from repro.parallel import SweepSpec
from repro.simulator import HardwareConfig
from repro.trace import Workload


def standard_libraries(k: int, m: int,
                       include=("ISA-L", "ISA-L-D", "Zerasure", "Cerasure", "DIALGA"),
                       dialga_kwargs: dict | None = None) -> list[CodingLibrary]:
    """The paper's §5.1 comparison set for one code geometry.

    ``dialga_kwargs`` maps :class:`~repro.core.dialga.DialgaConfig`
    field names to values for the DIALGA entry.
    """
    out: list[CodingLibrary] = []
    dialga_config = DialgaConfig(**(dialga_kwargs or {}))
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
            out.append(DialgaEncoder(k, m, config=dialga_config))
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


def sweep_spec(workloads, libraries=("ISA-L", "ISA-L-D", "Zerasure",
                                     "Cerasure", "DIALGA"),
               hardware: HardwareConfig | tuple | None = None,
               dialga_kwargs: dict | None = None) -> SweepSpec:
    """Build a :class:`~repro.parallel.SweepSpec` from bench vocabulary.

    Same axes the per-figure loops iterate — the paper's library set
    crossed with workloads and (optionally several) hardware configs —
    expressed as one declarative grid that
    :func:`~repro.parallel.run_sweep` can fan out over a process pool
    or memoize.
    """
    if isinstance(workloads, Workload):
        workloads = (workloads,)
    kwargs = {"DIALGA": dialga_kwargs} if dialga_kwargs else ()
    return SweepSpec(libraries=tuple(libraries), workloads=tuple(workloads),
                     hardware=hardware or (), library_kwargs=kwargs)
