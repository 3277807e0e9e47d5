"""Eq. (1) read-buffer admission control.

The paper bounds useful prefetching by the PM read buffer (§4.3,
Eq. (1)): with ``nthreads`` concurrent encode streams of geometry
(k, m) prefetching up to distance ``d``, the buffer must hold

    nthreads * k * 256 B * ceil(d / (k + m))  <=  buffer_size

Past that point additional concurrency *thrashes* the buffer — every
thread gets slower (the 12-thread knee of §4.1.2). A service therefore
gains nothing by admitting more simultaneous encode threads than the
cap; it should queue (or shed) the excess instead. That is exactly what
:class:`AdmissionController` enforces: it is the paper's equation
turned into a concurrency limiter.
"""

from __future__ import annotations

import math

from repro.simulator.params import PMConfig


def eq1_thread_cap(k: int, m: int, d_max: int, pm: PMConfig) -> int:
    """Largest concurrent encode-thread count satisfying Eq. (1).

    The inverse of :func:`repro.core.buffer_friendly.eq1_max_distance`:
    solve ``T * k * xpline * ceil(d_max / (k + m)) <= buffer`` for T.
    Always at least 1 — a service that can admit nothing is dead.
    """
    if k < 1 or m < 0 or d_max < 1:
        raise ValueError(f"bad geometry k={k} m={m} d_max={d_max}")
    buffer_bytes = pm.read_buffer_kb * 1024
    per_thread = k * pm.xpline_bytes * math.ceil(d_max / (k + m))
    return max(1, buffer_bytes // per_thread)


class AdmissionController:
    """Caps in-flight encode threads at the Eq. (1) bound.

    Parameters
    ----------
    k, m:
        Service stripe geometry.
    pm:
        The PM backend whose read buffer is being protected.

    The worst-case software-prefetch distance is ``d_max = 2 * k``, the
    buffer-friendly first-line distance the coordinator doubles the
    base to (§4.3.2).
    """

    def __init__(self, k: int, m: int, pm: PMConfig):
        self.k, self.m = k, m
        self.capacity_threads = eq1_thread_cap(k, m, 2 * k, pm)
        self.active_threads = 0
        #: High-water mark of concurrently admitted threads.
        self.peak_threads = 0

    @property
    def at_capacity(self) -> bool:
        """No further thread fits under the cap."""
        return self.active_threads >= self.capacity_threads

    def would_exceed(self, threads: int) -> bool:
        """Whether admitting ``threads`` more would violate Eq. (1)."""
        return self.active_threads + threads > self.capacity_threads

    def try_admit(self, threads: int) -> bool:
        """Reserve ``threads`` if the cap allows; False otherwise."""
        if threads < 1:
            raise ValueError("jobs need at least one thread")
        if self.would_exceed(threads):
            return False
        self.active_threads += threads
        self.peak_threads = max(self.peak_threads, self.active_threads)
        return True

    def release(self, threads: int) -> None:
        """Return threads reserved by :meth:`try_admit`."""
        if threads > self.active_threads:
            raise ValueError(
                f"releasing {threads} threads but only "
                f"{self.active_threads} active")
        self.active_threads -= threads
