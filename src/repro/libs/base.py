"""Common interface for coding-library facades."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.simulator import HardwareConfig, SimResult, simulate
from repro.trace import Trace, Workload

if TYPE_CHECKING:  # pragma: no cover - annotation only (layering: libs < core)
    from repro.core.policy import Policy


class UnsupportedWorkload(ValueError):
    """A library cannot run this workload (e.g. Zerasure on wide stripes)."""


class GeometryMismatch(ValueError):
    """Workload geometry (k, m) does not match the encoder's.

    Raised by :meth:`CodingLibrary.run` implementations that are bound
    to a fixed code geometry at construction time. Subclasses
    ``ValueError`` so pre-1.1 ``except ValueError`` handlers keep
    working.
    """


@dataclass
class LibraryResult:
    """A simulation outcome tagged with its library and workload."""

    library: str
    workload: Workload
    sim: SimResult

    @property
    def throughput_gbps(self) -> float:
        """Aggregate data throughput in GB/s."""
        return self.sim.throughput_gbps


class CodingLibrary(abc.ABC):
    """One compared system: functional codec + performance model.

    Subclasses provide bit-exact :meth:`encode`/:meth:`decode` and a
    per-thread :meth:`trace` describing the kernel's memory schedule.
    :meth:`run` ties them to the simulator with one uniform signature
    across all five systems::

        lib.run(workload, hardware=None, *, policy=None)

    ``policy`` pins a :class:`~repro.core.policy.Policy` for the run;
    libraries whose kernels cannot change strategy at runtime
    (``supports_policy`` False) raise :class:`UnsupportedWorkload` when
    one is passed.
    """

    #: Display name used in benchmark tables.
    name: str = "?"
    #: SIMD width the library's kernels support ("avx512" means it
    #: follows the workload setting; Zerasure/Cerasure force "avx256").
    forced_simd: str | None = None
    #: Whether :meth:`run` accepts a pinned scheduling policy.
    supports_policy: bool = False

    @abc.abstractmethod
    def encode(self, data: np.ndarray) -> np.ndarray:
        """Return the ``(m, block_len)`` parity for ``(k, block_len)`` data."""

    @abc.abstractmethod
    def decode(self, available: dict[int, np.ndarray], erased) -> dict[int, np.ndarray]:
        """Recover erased blocks from survivors (stripe-global indices)."""

    @abc.abstractmethod
    def trace(self, wl: Workload, hw: HardwareConfig, thread: int) -> Trace:
        """Generate the memory-access trace of one thread."""

    def supports(self, wl: Workload) -> bool:
        """Whether the library can run this workload at all."""
        return True

    def effective_workload(self, wl: Workload) -> Workload:
        """Apply library constraints (e.g. forced SIMD width)."""
        if self.forced_simd is not None and wl.simd != self.forced_simd:
            return wl.with_(simd=self.forced_simd)
        return wl

    def _trace_with_policy(self, wl: Workload, hw: HardwareConfig,
                           thread: int, policy: "Policy | None") -> Trace:
        """Hook for policy-capable libraries; default ignores ``policy``
        (callers have already been rejected unless it is None)."""
        return self.trace(wl, hw, thread)

    def run(self, workload: Workload,
            hardware: HardwareConfig | None = None, *,
            policy: "Policy | None" = None) -> LibraryResult:
        """Simulate the workload and return throughput + counters.

        Raises :class:`UnsupportedWorkload` when :meth:`supports` is
        False (benchmarks render these as the paper's "missing
        results"), or when ``policy`` is pinned on a library whose
        kernels cannot honor one.
        """
        if policy is not None and not self.supports_policy:
            raise UnsupportedWorkload(
                f"{self.name} has fixed kernels; cannot pin a scheduling policy")
        hw = hardware or HardwareConfig()
        wl = self.effective_workload(workload)
        if not self.supports(wl):
            raise UnsupportedWorkload(f"{self.name} cannot run {wl}")
        hw = hw.with_cpu(simd=wl.simd)
        traces = [self._trace_with_policy(wl, hw, t, policy)
                  for t in range(wl.nthreads)]
        sim = simulate(traces, hw)
        return LibraryResult(library=self.name, workload=wl, sim=sim)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
