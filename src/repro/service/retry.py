"""Deterministic retry policy with exponential backoff.

Backoff is computed on the *simulated* clock (the service has no real
time), so runs are bit-for-bit reproducible: attempt ``i`` after a
failure waits ``base_delay_ns * factor**(i - 1)``, capped.

When many clients hit the same transient-fault window (a *retry
storm*), identical schedules make every retry land on the same instant
and the storm re-collides forever. Optional seeded jitter spreads each
caller's waits over ``[1 - jitter/2, 1 + jitter/2]`` of the nominal
delay, keyed by a caller-supplied ``token`` (e.g. a hash of the request
key) — deterministic across runs, de-synchronized across callers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass


@dataclass(frozen=True, kw_only=True)
class RetryPolicy:
    """Exponential-backoff schedule for transient faults.

    Attributes
    ----------
    max_attempts:
        Total tries including the first (so ``max_attempts - 1``
        retries).
    base_delay_ns:
        Simulated wait before the first retry.
    factor:
        Multiplier per subsequent retry.
    max_delay_ns:
        Per-wait cap; must be at least ``base_delay_ns``.
    jitter:
        Fraction of each wait randomized (0 = none, the default; 1 =
        waits spread over [0.5x, 1.5x] of nominal). Deterministic: the
        spread is a pure function of ``(seed, token, retry)``.
    seed:
        Jitter seed (only meaningful when ``jitter > 0``).
    """

    max_attempts: int = 4
    base_delay_ns: float = 100_000.0
    factor: float = 2.0
    max_delay_ns: float = 10_000_000.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_ns < 0 or self.factor < 1.0:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if self.max_delay_ns < 0:
            raise ValueError(
                f"max_delay_ns must be non-negative, got {self.max_delay_ns}")
        if self.max_delay_ns < self.base_delay_ns:
            raise ValueError(
                f"max_delay_ns ({self.max_delay_ns}) must be >= "
                f"base_delay_ns ({self.base_delay_ns})")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def _jitter_factor(self, retry: int, token: int) -> float:
        """Deterministic multiplier in [1 - jitter/2, 1 + jitter/2].

        Uses CRC32 (not ``hash()``, which is salted per process) so the
        same (seed, token, retry) triple jitters identically run-to-run.
        """
        u = zlib.crc32(f"{self.seed}:{token}:{retry}".encode()) / 2 ** 32
        return 1.0 + self.jitter * (u - 0.5)

    def delay_ns(self, retry: int, *, token: int = 0) -> float:
        """Backoff before retry number ``retry`` (1-based).

        ``token`` identifies the retrying caller for jitter de-sync;
        ignored when ``jitter`` is 0.
        """
        if retry < 1:
            raise ValueError("retries are numbered from 1")
        delay = min(self.base_delay_ns * self.factor ** (retry - 1),
                    self.max_delay_ns)
        if self.jitter:
            delay = min(delay * self._jitter_factor(retry, token),
                        self.max_delay_ns)
        return delay
