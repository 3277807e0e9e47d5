"""Campaign and action schemas, plus the canned campaigns.

A :class:`Campaign` is pure data: geometry, base-traffic shape, a seed
and a tuple of timed :class:`ChaosAction` entries. The
:class:`~repro.chaos.engine.CampaignEngine` owns all behavior, so
campaigns are trivially serializable, comparable and replayable —
the same campaign (same seed) produces a byte-identical report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

#: Action kinds the engine knows how to apply.
ACTION_KINDS = frozenset({
    "bit_flip",         # silent media corruption (count random blocks)
    "scribble",         # silent software wild-write (count blocks)
    "block_loss",       # detected erasure of count random blocks
    "device_loss",      # correlated loss of one block position
    "transient_storm",  # window of operation-level transient faults
    "traffic_burst",    # extra put or get wave starting at the action
    "power_cut",        # power dies; WAL recovery brings the store back
    "flash_crowd",      # oversized deadline-bearing burst (overload)
    "slow_device",      # one device serves reads slowly for a window
    "retry_storm",      # harsh per-key repeated transient faults
})


@dataclass(frozen=True, kw_only=True)
class ChaosAction:
    """One timed entry of a fault schedule.

    Attributes
    ----------
    at_ns:
        When the action fires, on the service's simulated clock.
    kind:
        One of :data:`ACTION_KINDS`.
    device:
        Target block position (``device_loss``; random targets
        otherwise).
    count:
        How many faults to inject (``bit_flip`` / ``scribble`` /
        ``block_loss``).
    length:
        Scribble run length in bytes.
    duration_ns, rate:
        Storm window length and per-operation fault probability
        (``transient_storm``).
    op, nclients, objects_per_client, payload_bytes, mean_gap_ns:
        Burst shape (``traffic_burst``; ``op`` is ``put`` or ``get`` —
        a get burst re-reads the base traffic's keys).
    policy:
        Crash outcome model (``power_cut``): ``drop`` (every unfenced
        line lost — the guaranteed minimum), ``keep`` (flushed lines
        survive the dying power), or ``tear`` (seeded adversarial
        keep/revert/tear per pending line).
    penalty_ns:
        Per-read stall a slow device adds (``slow_device``).
    deadline_slack_ns:
        Deadline budget given to every burst request (``flash_crowd``;
        also honored by ``traffic_burst``): absolute deadline =
        arrival + slack. ``inf`` (default) = no deadlines.
    note:
        Free-form label echoed in the campaign report.
    """

    at_ns: float
    kind: str
    device: int = 0
    count: int = 1
    length: int = 64
    duration_ns: float = 0.0
    rate: float = 0.8
    op: str = "put"
    policy: str = "drop"
    nclients: int = 4
    objects_per_client: int = 2
    payload_bytes: int = 1024
    mean_gap_ns: float = 2_000.0
    penalty_ns: float = 0.0
    deadline_slack_ns: float = math.inf
    note: str = ""

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ValueError(
                f"unknown action kind {self.kind!r}; "
                f"expected one of {sorted(ACTION_KINDS)}")
        if self.at_ns < 0:
            raise ValueError("actions cannot fire before t=0")
        if self.kind in ("transient_storm", "retry_storm") \
                and self.duration_ns <= 0:
            raise ValueError("a storm needs duration_ns > 0")
        if self.kind in ("traffic_burst", "flash_crowd") \
                and self.op not in ("put", "get"):
            raise ValueError(f"burst op must be put|get, got {self.op!r}")
        if self.kind == "slow_device":
            if self.duration_ns <= 0:
                raise ValueError("slow_device needs duration_ns > 0")
            if self.penalty_ns <= 0:
                raise ValueError("slow_device needs penalty_ns > 0")
        if self.kind == "power_cut" and self.policy not in (
                "drop", "keep", "tear"):
            raise ValueError(
                f"power_cut policy must be drop|keep|tear, "
                f"got {self.policy!r}")

    def describe(self) -> str:
        """One deterministic log line for the campaign report."""
        ms = self.at_ns / 1e6
        if self.kind == "device_loss":
            detail = f"device={self.device}"
        elif self.kind == "transient_storm":
            detail = (f"rate={self.rate:.2f} "
                      f"for {self.duration_ns / 1e6:.2f}ms")
        elif self.kind == "retry_storm":
            detail = (f"rate={self.rate:.2f} x{self.count}/key "
                      f"for {self.duration_ns / 1e6:.2f}ms")
        elif self.kind == "traffic_burst":
            detail = (f"{self.op} x{self.nclients}c"
                      f"x{self.objects_per_client}")
        elif self.kind == "flash_crowd":
            slack = ("inf" if math.isinf(self.deadline_slack_ns)
                     else f"{self.deadline_slack_ns / 1e6:.2f}ms")
            detail = (f"{self.op} x{self.nclients}c"
                      f"x{self.objects_per_client} slack={slack}")
        elif self.kind == "slow_device":
            detail = (f"device={self.device} "
                      f"+{self.penalty_ns / 1e6:.2f}ms "
                      f"for {self.duration_ns / 1e6:.2f}ms")
        elif self.kind == "scribble":
            detail = f"count={self.count} len={self.length}B"
        elif self.kind == "power_cut":
            detail = f"policy={self.policy}"
        else:
            detail = f"count={self.count}"
        note = f"  ({self.note})" if self.note else ""
        return f"t={ms:8.2f}ms  {self.kind:<15} {detail}{note}"


@dataclass(frozen=True, kw_only=True)
class Campaign:
    """A complete, replayable chaos schedule.

    Base traffic is generated from ``seed``: every client PUTs its
    objects early in the run, then reads them back across the rest of
    the window — so there is always acknowledged data on the line when
    the faults land.
    """

    name: str
    description: str = ""
    seed: int = 0
    k: int = 4
    m: int = 3
    block_bytes: int = 512
    duration_ns: float = 1e8
    base_clients: int = 6
    objects_per_client: int = 3
    payload_bytes: int = 900
    mean_gap_ns: float = 20_000.0
    actions: tuple[ChaosAction, ...] = field(default=())

    def __post_init__(self):
        if self.duration_ns <= 0:
            raise ValueError("campaign needs duration_ns > 0")
        late = [a for a in self.actions if a.at_ns > self.duration_ns]
        if late:
            raise ValueError(
                f"{len(late)} action(s) scheduled past the campaign "
                f"duration {self.duration_ns} ns")

    def with_seed(self, seed: int) -> "Campaign":
        """The same schedule under a different seed."""
        return replace(self, seed=seed)

    def schedule(self) -> list[ChaosAction]:
        """Actions in firing order (stable for equal times)."""
        return sorted(self.actions, key=lambda a: a.at_ns)


def single_device_loss(seed: int = 0) -> Campaign:
    """One device dies mid-run; reads degrade, the breaker trips, the
    repair queue rebuilds every stripe and the device recovers."""
    return Campaign(
        name="single_device_loss",
        description="one correlated device failure, self-healed",
        seed=seed,
        actions=(
            ChaosAction(at_ns=3e7, kind="device_loss", device=1,
                        note="device 1 dies"),
            ChaosAction(at_ns=3.2e7, kind="traffic_burst", op="get",
                        nclients=6, objects_per_client=3,
                        note="clients read through the loss"),
        ),
    )


def corruption_wave(seed: int = 0) -> Campaign:
    """A burst of silent corruption (bit flips + scribbles) that only
    checksum scrubbing can find."""
    return Campaign(
        name="corruption_wave",
        description="silent media corruption wave, scrub-detected",
        seed=seed,
        actions=(
            ChaosAction(at_ns=2.5e7, kind="bit_flip", count=5,
                        note="media flips"),
            ChaosAction(at_ns=3e7, kind="scribble", count=3, length=96,
                        note="wild writes"),
            ChaosAction(at_ns=5e7, kind="traffic_burst", op="get",
                        nclients=6, objects_per_client=3,
                        note="read-back under corruption"),
        ),
    )


def retry_storm(seed: int = 0) -> Campaign:
    """A transient-fault storm during a traffic burst: every operation
    hiccups, jittered backoff de-synchronizes the retries."""
    return Campaign(
        name="retry_storm",
        description="transient-fault storm absorbed by jittered retry",
        seed=seed,
        actions=(
            ChaosAction(at_ns=3e7, kind="transient_storm",
                        duration_ns=3e7, rate=0.7,
                        note="controller hiccups"),
            ChaosAction(at_ns=3.2e7, kind="traffic_burst", op="put",
                        nclients=5, objects_per_client=2,
                        note="burst inside the storm"),
        ),
    )


def kitchen_sink(seed: int = 0) -> Campaign:
    """Everything at once: device loss, then a corruption wave, then a
    retry storm under burst load, plus stray block losses — the
    acceptance campaign that must still end durability-clean."""
    return Campaign(
        name="kitchen_sink",
        description="device loss + corruption wave + retry storm, "
                    "concurrently self-healed",
        seed=seed,
        duration_ns=2e8,
        actions=(
            ChaosAction(at_ns=2.5e7, kind="device_loss", device=2,
                        note="device 2 dies"),
            ChaosAction(at_ns=3e7, kind="traffic_burst", op="get",
                        nclients=6, objects_per_client=3,
                        note="degraded read wave"),
            ChaosAction(at_ns=6e7, kind="bit_flip", count=4,
                        note="corruption wave begins"),
            ChaosAction(at_ns=6.5e7, kind="scribble", count=2, length=80,
                        note="corruption wave continues"),
            ChaosAction(at_ns=9e7, kind="block_loss", count=2,
                        note="stray region losses"),
            ChaosAction(at_ns=1.1e8, kind="transient_storm",
                        duration_ns=3e7, rate=0.6,
                        note="retry storm"),
            ChaosAction(at_ns=1.15e8, kind="traffic_burst", op="put",
                        nclients=5, objects_per_client=2,
                        note="burst inside the storm"),
            ChaosAction(at_ns=1.5e8, kind="traffic_burst", op="get",
                        nclients=6, objects_per_client=3,
                        note="final read wave"),
        ),
    )


def power_cycle(seed: int = 0) -> Campaign:
    """Power dies twice mid-run — once under the adversarial tearing
    model, once between waves — and WAL recovery must bring every
    acknowledged write back, re-queue in-flight requests and keep the
    read-back waves durability-clean."""
    return Campaign(
        name="power_cycle",
        description="two power cuts, WAL-recovered, durability-clean",
        seed=seed,
        actions=(
            ChaosAction(at_ns=2.5e7, kind="power_cut", policy="tear",
                        note="power dies mid-ingest, caches tear"),
            ChaosAction(at_ns=3e7, kind="traffic_burst", op="get",
                        nclients=6, objects_per_client=3,
                        note="read-back after first recovery"),
            ChaosAction(at_ns=5.5e7, kind="traffic_burst", op="put",
                        nclients=4, objects_per_client=2,
                        note="fresh writes between cuts"),
            ChaosAction(at_ns=7e7, kind="power_cut", policy="drop",
                        note="second cut: guaranteed-minimum outcome"),
            ChaosAction(at_ns=8e7, kind="traffic_burst", op="get",
                        nclients=6, objects_per_client=3,
                        note="final read-back"),
        ),
    )


#: The canned campaign library, by name.
CANNED_CAMPAIGNS = {
    "single_device_loss": single_device_loss,
    "corruption_wave": corruption_wave,
    "retry_storm": retry_storm,
    "kitchen_sink": kitchen_sink,
    "power_cycle": power_cycle,
}


def flash_crowd(seed: int = 0) -> Campaign:
    """A deadline-bearing crowd ~10x the base load slams the service
    mid-run: shed rate must stay bounded, brownout must engage under
    the sustained pressure and disengage once the crowd passes, and
    every acked byte must survive."""
    return Campaign(
        name="flash_crowd",
        description="10x deadline-bearing crowd; bounded shed, "
                    "brownout cycle, zero acked loss",
        seed=seed,
        actions=(
            ChaosAction(at_ns=3e7, kind="flash_crowd", op="put",
                        nclients=30, objects_per_client=4,
                        mean_gap_ns=400.0, deadline_slack_ns=4e6,
                        note="crowd of deadline writes"),
            ChaosAction(at_ns=3.4e7, kind="flash_crowd", op="get",
                        nclients=6, objects_per_client=3,
                        mean_gap_ns=600.0, deadline_slack_ns=4e6,
                        note="crowd re-reads under pressure"),
            ChaosAction(at_ns=7e7, kind="traffic_burst", op="get",
                        nclients=6, objects_per_client=3,
                        mean_gap_ns=50_000.0,
                        note="calm read-back after the crowd"),
        ),
    )


def slow_device_tail(seed: int = 0) -> Campaign:
    """One device turns slow (not dead) for a long window while clients
    read: hedged reads must cap the tail by racing the degraded path
    against the stalled primary."""
    return Campaign(
        name="slow_device_tail",
        description="slow device window; hedged reads cap the tail",
        seed=seed,
        actions=(
            ChaosAction(at_ns=2.5e7, kind="slow_device", device=1,
                        penalty_ns=3e6, duration_ns=5e7,
                        note="device 1 turns slow"),
            ChaosAction(at_ns=3e7, kind="traffic_burst", op="get",
                        nclients=6, objects_per_client=3,
                        mean_gap_ns=20_000.0,
                        note="reads into the slow window"),
            ChaosAction(at_ns=8.5e7, kind="traffic_burst", op="get",
                        nclients=6, objects_per_client=3,
                        mean_gap_ns=20_000.0,
                        note="reads after recovery"),
        ),
    )


def retry_storm_overload(seed: int = 0) -> Campaign:
    """A harsh correlated-fault window (every key fails repeatedly)
    under burst load — the metastability scenario. With retry budgets
    the storm is absorbed; the no-budget counterfactual collapses."""
    return Campaign(
        name="retry_storm_overload",
        description="harsh per-key fault storm under load; retry "
                    "budget prevents metastable collapse",
        seed=seed,
        actions=(
            ChaosAction(at_ns=3e7, kind="retry_storm",
                        duration_ns=1e7, rate=1.0, count=5,
                        note="every key fails repeatedly"),
            ChaosAction(at_ns=3.1e7, kind="traffic_burst", op="put",
                        nclients=6, objects_per_client=2,
                        mean_gap_ns=2_000.0,
                        note="writes inside the storm"),
            ChaosAction(at_ns=4.2e7, kind="flash_crowd", op="put",
                        nclients=25, objects_per_client=4,
                        mean_gap_ns=1_000.0, deadline_slack_ns=3e7,
                        note="deadline crowd lands on the backlog"),
            ChaosAction(at_ns=7e7, kind="traffic_burst", op="get",
                        nclients=6, objects_per_client=3,
                        mean_gap_ns=30_000.0,
                        note="post-storm read-back"),
        ),
    )


#: Overload-control campaigns (separate library: these are meant to run
#: with ``ServiceConfig.overload`` set, and keeping them out of
#: :data:`CANNED_CAMPAIGNS` leaves the classic chaos bench scenario
#: and its shape checks untouched).
OVERLOAD_CAMPAIGNS = {
    "flash_crowd": flash_crowd,
    "slow_device_tail": slow_device_tail,
    "retry_storm_overload": retry_storm_overload,
}
