"""The deterministic crash-point harness.

A store run makes an exact, enumerable sequence of *ordering
boundaries*: every ``flush(line)`` and every ``fence()`` on either
persistence domain (stripes and WAL) fires a persist hook before the
operation takes effect. :class:`CrashInjector` replays one
:class:`~repro.crash.scenarios.CrashScenario` with a hook armed to
raise :class:`PowerCut` at boundary *i* — so the power dies exactly
*before* the i-th flush or fence lands — then resolves the pending
lines through a crash policy, recovers, and checks the four
:mod:`~repro.crash.invariants`.

:meth:`CrashInjector.enumerate_all` sweeps *every* boundary (the
exhaustive proof for one scenario); :meth:`CrashInjector.tear_points`
adds seeded adversarial rounds where a random boundary is hit under
:func:`~repro.pmstore.pmem.seeded_line_policy` — any pending line may
persist whole, revert whole, or tear at an 8 B store boundary. Both are
bit-deterministic per seed, and :attr:`CrashCampaignReport.points_sha256`
digests every crash point's report line.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.crash.invariants import InvariantResult, check_all
from repro.crash.scenarios import CrashScenario
from repro.pmstore.pmem import CrashPolicy, keep_flushed, seeded_line_policy
from repro.pmstore.store import PMStore, RecoveryReport


class PowerCut(BaseException):
    """Raised at an armed ordering boundary: power died *here*.

    A ``BaseException`` so no store- or service-level handler can
    accidentally swallow it — nothing survives a power cut.
    """


class _Boundary:
    """The shared persist hook: counts boundaries, cuts at the target."""

    def __init__(self, target: int | None = None):
        self.count = 0
        self.target = target
        self.armed = target is not None

    def __call__(self, kind: str, line: int) -> None:
        if self.armed and self.count == self.target:
            self.armed = False
            raise PowerCut(f"boundary {self.count} ({kind})")
        self.count += 1


@dataclass
class CrashPointResult:
    """One crash point: where, under which policy, and the verdicts."""

    boundary: int
    policy: str
    crashed: bool
    damaged_lines: int = 0
    inflight_op: str = ""
    recovery: RecoveryReport | None = None
    invariants: tuple[InvariantResult, ...] = ()

    @property
    def passed(self) -> bool:
        return all(inv.passed for inv in self.invariants)

    def summary(self) -> str:
        """One deterministic report line."""
        verdict = "PASS" if self.passed else "FAIL"
        inv = " ".join(
            ("+" if r.passed else "-") + r.name for r in self.invariants)
        rec = (f" txns={self.recovery.txns_seen}"
               f" fwd={self.recovery.rolled_forward}"
               if self.recovery else "")
        return (f"[{verdict}] boundary={self.boundary:<4} "
                f"policy={self.policy:<13} damaged={self.damaged_lines:<3}"
                f" inflight={self.inflight_op or '-':<10}{rec}  {inv}")


@dataclass
class CrashCampaignReport:
    """Aggregate over a sweep of crash points."""

    scenario: str
    boundaries_total: int = 0
    points_run: int = 0
    tear_rounds: int = 0
    points_passed: int = 0
    rolled_forward_total: int = 0
    damaged_lines_total: int = 0
    failures: list[str] = field(default_factory=list)
    _points: hashlib._Hash = field(default_factory=hashlib.sha256,
                                   init=False, repr=False, compare=False)

    @property
    def all_passed(self) -> bool:
        return self.points_run > 0 and self.points_passed == self.points_run

    @property
    def points_sha256(self) -> str:
        """sha256 of every absorbed point's ``summary()`` line, in order."""
        return self._points.hexdigest()

    def absorb(self, result: CrashPointResult) -> None:
        self._points.update(result.summary().encode() + b"\n")
        self.points_run += 1
        self.damaged_lines_total += result.damaged_lines
        if result.recovery is not None:
            self.rolled_forward_total += result.recovery.rolled_forward
        if result.passed:
            self.points_passed += 1
        else:
            self.failures.append(result.summary())

    def summary(self) -> str:
        """One deterministic report line."""
        verdict = "ALL PASS" if self.all_passed else "FAILURES"
        return (f"{self.scenario}: {self.points_passed}/{self.points_run} "
                f"crash points pass ({self.boundaries_total} boundaries, "
                f"{self.tear_rounds} tear rounds, "
                f"{self.rolled_forward_total} txns rolled forward, "
                f"{self.damaged_lines_total} lines damaged)  [{verdict}]")


class CrashInjector:
    """Enumerates and replays crash points of one scenario.

    Parameters
    ----------
    scenario:
        The op sequence to interrupt.
    pm_capacity_bytes, wal_capacity_bytes:
        Store sizing (small defaults keep digests cheap: the harness
        hashes the allocated region at every point).
    """

    def __init__(self, scenario: CrashScenario, *,
                 pm_capacity_bytes: int = 1 << 20,
                 wal_capacity_bytes: int = 1 << 20):
        self.scenario = scenario
        self.pm_capacity_bytes = pm_capacity_bytes
        self.wal_capacity_bytes = wal_capacity_bytes

    # -- scenario execution --------------------------------------------------

    def _fresh_store(self) -> PMStore:
        s = self.scenario
        return PMStore(s.k, s.m, block_bytes=s.block_bytes, lrc_l=s.lrc_l,
                       pm_capacity_bytes=self.pm_capacity_bytes,
                       wal_capacity_bytes=self.wal_capacity_bytes)

    @staticmethod
    def _apply_op(store: PMStore, op: tuple) -> None:
        kind = op[0]
        if kind == "put":
            store.put(op[1], op[2])
        elif kind == "update":
            store.update(op[1], op[2])
        elif kind == "delete":
            store.delete(op[1])
        elif kind == "mark_lost":
            store.mark_lost(op[1], op[2])
        elif kind == "device_loss":
            store.mark_device_lost(op[1])
        elif kind == "repair":
            store.repair_all()
        elif kind == "restore":
            store.restore_device(op[1])
        else:
            raise ValueError(f"unknown scenario op {kind!r}")

    @staticmethod
    def _settle_op(settled: dict[str, bytes], op: tuple) -> None:
        if op[0] in ("put", "update"):
            settled[op[1]] = op[2]
        elif op[0] == "delete":
            settled.pop(op[1], None)

    def _run(self, store: PMStore, boundary: _Boundary,
             settled: dict[str, bytes]) -> tuple | None:
        """Replay the scenario; returns the op in flight when the cut
        hit (None if the scenario completed)."""
        store.domain.persist_hooks.append(boundary)
        store.wal.domain.persist_hooks.append(boundary)
        try:
            for op in self.scenario.ops:
                try:
                    self._apply_op(store, op)
                except PowerCut:
                    return op
                self._settle_op(settled, op)
            return None
        finally:
            boundary.armed = False  # recovery must not re-trip the cut

    def count_boundaries(self) -> int:
        """Flush/fence boundaries in one uninterrupted scenario run."""
        boundary = _Boundary(target=None)
        self._run(self._fresh_store(), boundary, {})
        return boundary.count

    # -- single crash point --------------------------------------------------

    def run_point(self, boundary_index: int,
                  policy: CrashPolicy | None = None,
                  policy_name: str = "drop_unfenced") -> CrashPointResult:
        """Crash at one boundary, recover, check all four invariants."""
        store = self._fresh_store()
        boundary = _Boundary(target=boundary_index)
        settled: dict[str, bytes] = {}
        inflight = self._run(store, boundary, settled)
        crashed = inflight is not None
        result = CrashPointResult(
            boundary=boundary_index, policy=policy_name, crashed=crashed,
            inflight_op=f"{inflight[0]}:{inflight[1]}"
            if crashed and len(inflight) > 1 else
            (inflight[0] if crashed else ""))
        result.damaged_lines = store.crash(policy)
        result.recovery = store.recover()
        result.invariants = check_all(store, settled,
                                      inflight if crashed else None)
        return result

    # -- sweeps --------------------------------------------------------------

    def enumerate_all(self, report: CrashCampaignReport | None = None,
                      limit: int | None = None) -> CrashCampaignReport:
        """Crash at *every* boundary under the guaranteed-minimum
        policy (all unfenced lines dropped) — the exhaustive sweep.

        ``limit`` caps the sweep at the first ``limit`` boundaries.
        """
        total = self.count_boundaries()
        report = report or CrashCampaignReport(scenario=self.scenario.name)
        report.boundaries_total = total
        for i in range(total if limit is None else min(limit, total)):
            report.absorb(self.run_point(i))
        return report

    def tear_points(self, rounds: int, seed: int = 0,
                    report: CrashCampaignReport | None = None
                    ) -> CrashCampaignReport:
        """Seeded adversarial rounds: a random boundary is cut under
        the line-tearing policy (keep / revert / tear per pending
        line), plus ``keep_flushed`` rounds — deterministic per seed.
        """
        total = self.count_boundaries()
        report = report or CrashCampaignReport(scenario=self.scenario.name)
        report.boundaries_total = total
        report.tear_rounds += rounds
        for r in range(rounds):
            rng = np.random.default_rng([seed, 0x7EA2, r])
            i = int(rng.integers(total))
            if r % 3 == 2:
                result = self.run_point(i, keep_flushed, "keep_flushed")
            else:
                result = self.run_point(i, seeded_line_policy(rng),
                                        "seeded_tear")
            report.absorb(result)
        return report

    def campaign(self, *, tear_rounds: int = 25,
                 seed: int = 0) -> CrashCampaignReport:
        """Exhaustive enumeration plus adversarial tear rounds."""
        report = self.enumerate_all()
        if tear_rounds:
            self.tear_points(tear_rounds, seed=seed, report=report)
        return report
