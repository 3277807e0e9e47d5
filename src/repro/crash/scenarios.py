"""Crash scenarios: deterministic op sequences the harness interrupts.

A :class:`CrashScenario` is pure data — geometry plus a tuple of store
operations — so a crash point is fully identified by (scenario, seed,
boundary index, policy): the harness can enumerate every flush/fence
boundary of the sequence and replay any single one bit-exactly.

Supported ops (tuples, first element is the kind):

=====================  ==================================================
``("put", k, v)``      store ``v`` under ``k`` (one WAL transaction)
``("update", k, v)``   in-place delta-parity overwrite (same length)
``("delete", k)``      logged delete
``("mark_lost", s, b)``declare block ``b`` of stripe ``s`` erased
``("device_loss", d)`` correlated loss of block position ``d``
``("repair",)``        rebuild every lost block (``repair_all``)
``("restore", d)``     bring device ``d`` back (bulk rebuild)
=====================  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CrashScenario:
    """A replayable op sequence over one store geometry."""

    name: str
    k: int = 3
    m: int = 2
    block_bytes: int = 256
    lrc_l: int | None = None
    ops: tuple[tuple, ...] = field(default=())


def _payload(rng: np.random.Generator, nbytes: int) -> bytes:
    return rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()


def smoke_scenario(seed: int = 0) -> CrashScenario:
    """The default harness workload: puts filling two stripes, delta
    updates re-touching them (the write-hole shape), an overwrite, a
    delete — every transaction kind, small enough that exhaustive
    boundary enumeration stays a smoke test (still >100 crash points).
    """
    rng = np.random.default_rng([seed, 0x5C])
    ops: list[tuple] = []
    sizes = (700, 300, 512, 640, 200)
    for i, nbytes in enumerate(sizes):
        ops.append(("put", f"obj-{i}", _payload(rng, nbytes)))
    # Delta updates: same length, new bytes — the small-write path.
    ops.append(("update", "obj-1", _payload(rng, sizes[1])))
    ops.append(("update", "obj-3", _payload(rng, sizes[3])))
    # Overwrite (a put superseding an acked put) and a delete.
    ops.append(("put", "obj-0", _payload(rng, 450)))
    ops.append(("delete", "obj-4"))
    ops.append(("update", "obj-1", _payload(rng, sizes[1])))
    return CrashScenario(name=f"smoke(seed={seed})", ops=tuple(ops))


def degraded_scenario(seed: int = 0) -> CrashScenario:
    """Crashes composed with erasures: a device dies between writes,
    repair runs, more writes land — recovery must preserve loss marks
    and repair progress alike."""
    rng = np.random.default_rng([seed, 0xD6])
    ops: list[tuple] = [
        ("put", "a", _payload(rng, 600)),
        ("put", "b", _payload(rng, 500)),
        ("device_loss", 1),
        ("put", "c", _payload(rng, 300)),
        ("update", "a", _payload(rng, 600)),
        ("restore", 1),
        ("put", "d", _payload(rng, 640)),
        ("delete", "b"),
    ]
    return CrashScenario(name=f"degraded(seed={seed})", ops=tuple(ops))


#: Put/update rounds of :func:`soak_scenario`.
SOAK_ROUNDS = 6


def soak_scenario(seed: int = 0) -> CrashScenario:
    """A larger mixed workload for the full-enumeration soak (``slow``
    marker): several stripes, ``SOAK_ROUNDS`` rounds of repeated
    update/overwrite churn."""
    rng = np.random.default_rng([seed, 0x50AC])
    ops: list[tuple] = []
    sizes = {}
    for r in range(SOAK_ROUNDS):
        for i in range(4):
            key = f"o{r % 3}-{i}"
            if key in sizes and rng.integers(2):
                ops.append(("update", key, _payload(rng, sizes[key])))
            else:
                sizes[key] = int(rng.integers(128, 700))
                ops.append(("put", key, _payload(rng, sizes[key])))
        if r == SOAK_ROUNDS // 2:
            ops.append(("mark_lost", 0, 1))
            ops.append(("repair",))
    return CrashScenario(name=f"soak(seed={seed})", ops=tuple(ops))
