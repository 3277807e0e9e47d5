"""Per-device health tracking and circuit breaking.

The service sees the §2.1 error taxonomy only as symptoms: degraded
reads (detected erasures), checksum mismatches surfaced by scrubbing
(silent corruption, located), and transient operation faults. A
:class:`HealthMonitor` aggregates those symptoms per *device* (stripe-
global block position — one simulated PM region per position) inside a
sliding window on the simulated clock, and runs one classic circuit
breaker per device:

``CLOSED`` --(errors >= trip_threshold in window)--> ``OPEN``
--(cooldown with no new errors)--> ``HALF_OPEN``
--(clean probe)--> ``CLOSED``  (a dirty probe re-opens)

While a breaker is OPEN the device is treated as failed: the
self-healing loop (:mod:`repro.service.healing`) marks it lost so reads
stop trusting it and reconstruct through parity instead, and queues its
stripes for repair. The OPEN->CLOSED interval is the repair clock that
the chaos campaign report turns into MTTR.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field


class HealthState(str, enum.Enum):
    """Circuit-breaker state of one device."""

    CLOSED = "closed"          # healthy, trusted
    OPEN = "open"              # tripped: treated as lost, repairs queued
    HALF_OPEN = "half_open"    # cooled down, awaiting a clean probe


@dataclass
class HealthTransition:
    """One breaker state change (the campaign report's MTTR source)."""

    device: int
    at_ns: float
    old: HealthState
    new: HealthState
    reason: str = ""


@dataclass
class _DeviceHealth:
    state: HealthState = HealthState.CLOSED
    errors: deque = field(default_factory=deque)   # error timestamps (ns)
    opened_at_ns: float | None = None
    last_error_ns: float = float("-inf")
    total_errors: int = 0


class HealthMonitor:
    """Sliding-window error rates + one circuit breaker per device.

    Parameters
    ----------
    num_devices:
        Stripe-global block positions (``k + parity_blocks``).
    window_ns:
        Sliding window over which errors count toward tripping.
    trip_threshold:
        Errors within the window that flip CLOSED -> OPEN.
    cooldown_ns:
        Error-free interval after which an OPEN breaker half-opens.
    """

    def __init__(self, num_devices: int, *, window_ns: float = 5e6,
                 trip_threshold: int = 3, cooldown_ns: float = 2e7):
        if num_devices < 1:
            raise ValueError("need at least one device")
        if trip_threshold < 1:
            raise ValueError("trip_threshold must be >= 1")
        self.num_devices = num_devices
        self.window_ns = float(window_ns)
        self.trip_threshold = trip_threshold
        self.cooldown_ns = float(cooldown_ns)
        self._devices = [_DeviceHealth() for _ in range(num_devices)]
        #: Every breaker transition, in simulated-clock order.
        self.transitions: list[HealthTransition] = []
        #: Operation-level transient faults (not device-attributable).
        self.transient_faults = 0

    # -- recording ---------------------------------------------------------

    def _transition(self, device: int, now_ns: float, new: HealthState,
                    reason: str) -> None:
        dev = self._devices[device]
        old, dev.state = dev.state, new
        if new is HealthState.OPEN:
            dev.opened_at_ns = now_ns
        self.transitions.append(
            HealthTransition(device, now_ns, old, new, reason))

    def record_error(self, device: int, now_ns: float,
                     kind: str = "error") -> HealthState:
        """Count one device-attributable error; may trip the breaker.

        Returns the (possibly new) state so callers can react to the
        CLOSED -> OPEN edge.
        """
        dev = self._devices[device]
        dev.errors.append(now_ns)
        dev.total_errors += 1
        dev.last_error_ns = max(dev.last_error_ns, now_ns)
        while dev.errors and dev.errors[0] < now_ns - self.window_ns:
            dev.errors.popleft()
        if (dev.state is HealthState.CLOSED
                and len(dev.errors) >= self.trip_threshold):
            self._transition(device, now_ns, HealthState.OPEN,
                             f"{len(dev.errors)} {kind} errors in window")
        elif dev.state is HealthState.HALF_OPEN:
            # A dirty probe window: straight back to OPEN.
            self._transition(device, now_ns, HealthState.OPEN,
                             f"{kind} error while half-open")
        return dev.state

    def record_transient(self, now_ns: float) -> None:
        """Count one operation-level transient fault (no device)."""
        self.transient_faults += 1

    # -- state machine driving --------------------------------------------

    def tick(self, now_ns: float) -> list[int]:
        """Advance cooldowns; returns devices that just half-opened."""
        probes = []
        for device, dev in enumerate(self._devices):
            if (dev.state is HealthState.OPEN
                    and now_ns - dev.last_error_ns >= self.cooldown_ns):
                self._transition(device, now_ns, HealthState.HALF_OPEN,
                                 "cooldown elapsed")
                probes.append(device)
        return probes

    def probe_result(self, device: int, now_ns: float, clean: bool) -> None:
        """Report a half-open probe: clean closes, dirty re-opens."""
        dev = self._devices[device]
        if dev.state is not HealthState.HALF_OPEN:
            return
        if clean:
            dev.errors.clear()
            self._transition(device, now_ns, HealthState.CLOSED,
                             "clean probe")
        else:
            dev.last_error_ns = now_ns
            self._transition(device, now_ns, HealthState.OPEN,
                             "dirty probe")

    # -- reading -----------------------------------------------------------

    def state(self, device: int) -> HealthState:
        """Current breaker state of ``device``."""
        return self._devices[device].state

    def open_devices(self) -> list[int]:
        """Devices whose breaker is currently OPEN or HALF_OPEN."""
        return [d for d, dev in enumerate(self._devices)
                if dev.state is not HealthState.CLOSED]

    def mttr_ns(self) -> list[float]:
        """OPEN -> CLOSED repair times, one per completed incident.

        Consecutive OPEN/HALF_OPEN flapping within one incident counts
        from the *first* OPEN to the final CLOSED.
        """
        out: list[float] = []
        opened: dict[int, float] = {}
        for tr in self.transitions:
            if tr.new is HealthState.OPEN and tr.device not in opened:
                opened[tr.device] = tr.at_ns
            elif tr.new is HealthState.CLOSED and tr.device in opened:
                out.append(tr.at_ns - opened.pop(tr.device))
        return out

    def summary(self) -> dict:
        """JSON-ready health snapshot."""
        mttr = self.mttr_ns()
        return {
            "devices": {
                str(d): {"state": dev.state.value,
                         "errors": dev.total_errors}
                for d, dev in enumerate(self._devices) if dev.total_errors
                or dev.state is not HealthState.CLOSED
            },
            "transitions": len(self.transitions),
            "transient_faults": self.transient_faults,
            "incidents_resolved": len(mttr),
            "mean_mttr_ns": sum(mttr) / len(mttr) if mttr else 0.0,
        }
