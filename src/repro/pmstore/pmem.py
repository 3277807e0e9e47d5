"""The persistence-domain model: PM durability at 256 B line granularity.

Real persistent memory gives no durability guarantee for a plain store:
the write sits in the CPU cache hierarchy until a ``clwb`` pushes its
cache line toward the memory controller and an ``sfence`` orders the
flush with what follows. Only then is the line inside the *persistence
domain* (ADR) and guaranteed to survive power loss; everything else may
be dropped — or, worse, *partially* evicted — leaving torn state behind.
The media itself writes in 256 B XPLine units, which is the tearing
granularity this model adopts.

:class:`PersistenceDomain` reproduces exactly that contract for the
simulated store:

* :meth:`write` applies bytes to memory immediately (the running
  program always sees its own stores — store-to-load forwarding) while
  snapshotting the *pre-write* content of every touched line;
* :meth:`flush` marks touched lines flushed (``clwb``), :meth:`fence`
  makes every flushed line durable (``sfence``) and drops its snapshot;
* :meth:`crash` reverts, keeps or *tears* each still-pending line
  according to a :data:`CrashPolicy` — the default models the
  guaranteed-minimum outcome (every unfenced line is lost), while
  :func:`seeded_line_policy` models the adversarial one (caches may
  have evicted any subset of unfenced lines, whole or torn at 8 B
  store granularity).

Every flush and fence also fires the registered persist hooks, which is
how :class:`~repro.crash.injector.CrashInjector` enumerates crash
points: each hook invocation is one ordering boundary where the power
can be cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Media write granularity (Optane's XPLine): crash tearing never
#: splits state finer than one of these except at 8 B store boundaries.
LINE_BYTES = 256

#: Within-line tear granularity: the 8 B atomicity unit of the ISA.
ATOM_BYTES = 8


class PersistenceDomainFull(RuntimeError):
    """The simulated PM region ran out of capacity."""


@dataclass
class PendingLine:
    """One line written but not yet fenced into the persistence domain.

    Attributes
    ----------
    line:
        Line index (``addr // LINE_BYTES``).
    flushed:
        Whether a ``clwb`` already pushed it (fence pending).
    old:
        The durable content the line had before the first unfenced
        write touched it (the rollback image).
    """

    line: int
    flushed: bool
    old: bytes


#: Decides one pending line's fate at a crash: returns the bytes that
#: are durable afterwards (``pending.old``, the new content, or a torn
#: mix). ``new`` is the volatile content at crash time.
CrashPolicy = Callable[[PendingLine, bytes], bytes]


def drop_unfenced(pending: PendingLine, new: bytes) -> bytes:
    """The guaranteed-minimum crash outcome: every line that was not
    fenced into the persistence domain reverts to its old content."""
    return pending.old


def keep_flushed(pending: PendingLine, new: bytes) -> bytes:
    """An optimistic outcome: flushed-but-unfenced lines made it to the
    media before power died; dirty (never flushed) lines did not."""
    return new if pending.flushed else pending.old


def seeded_line_policy(rng: np.random.Generator) -> CrashPolicy:
    """The adversarial outcome: caches evict what they please.

    Each pending line — flushed or not — independently persists whole,
    reverts whole, or *tears* at a random 8 B boundary (new prefix, old
    suffix: stores drain in order within a line). Deterministic per
    ``rng`` state, which is how the crash harness replays a tear run.
    """

    def policy(pending: PendingLine, new: bytes) -> bytes:
        roll = rng.integers(3)
        if roll == 0:
            return new
        if roll == 1:
            return pending.old
        atoms = len(new) // ATOM_BYTES
        cut = int(rng.integers(1, max(2, atoms))) * ATOM_BYTES
        return new[:cut] + pending.old[cut:]

    return policy


class PersistenceDomain:
    """Simulated PM region with explicit flush/fence durability.

    Parameters
    ----------
    capacity_bytes:
        Fixed region size. Allocated lazily by the OS (the backing
        array is zero-filled virtual memory), so a roomy default costs
        nothing until touched.
    line_bytes:
        Durability/tearing granularity (default 256 B XPLine).

    Notes
    -----
    Reads served through :meth:`view` always see the *volatile* state
    (the program observes its own stores); :attr:`pending_lines` is
    what separates that from the durable state a crash would leave.
    """

    def __init__(self, capacity_bytes: int = 64 << 20,
                 line_bytes: int = LINE_BYTES):
        if line_bytes < ATOM_BYTES or line_bytes % ATOM_BYTES:
            raise ValueError(f"line_bytes must be a multiple of {ATOM_BYTES}")
        self.line_bytes = line_bytes
        self.capacity = capacity_bytes
        self.memory = np.zeros(capacity_bytes, dtype=np.uint8)
        self._tail = 0                       # allocation bump pointer
        self._pending: dict[int, PendingLine] = {}
        #: Callbacks fired as ``hook(kind, line)`` at every ordering
        #: boundary: ``("flush", line)`` per line entering the flush
        #: queue, ``("fence", -1)`` per fence. A hook may raise to model
        #: a power cut *at* that boundary (the op then never happens).
        self.persist_hooks: list[Callable[[str, int], None]] = []
        # Lifetime counters (observability / recovery-cost model).
        self.lines_written = 0
        self.flushes = 0
        self.fences = 0

    # -- allocation --------------------------------------------------------

    def allocate(self, nbytes: int) -> int:
        """Reserve ``nbytes`` (line-aligned); returns the base address.

        Allocation state is volatile bookkeeping — recovery re-derives
        the watermark from the WAL via :meth:`reset_allocator`.
        """
        addr = self._tail
        end = addr + self._line_align(nbytes)
        if end > self.capacity:
            raise PersistenceDomainFull(
                f"allocating {nbytes} B at {addr} exceeds the "
                f"{self.capacity} B region")
        self._tail = end
        return addr

    def reset_allocator(self, tail: int) -> None:
        """Set the allocation watermark (used by crash recovery, which
        re-learns region placement from the WAL)."""
        self._tail = max(0, min(self._line_align(tail), self.capacity))

    def _line_align(self, n: int) -> int:
        lb = self.line_bytes
        return (n + lb - 1) // lb * lb

    # -- the store path ----------------------------------------------------

    def view(self, addr: int, nbytes: int) -> np.ndarray:
        """A live ``uint8`` view of ``[addr, addr + nbytes)``.

        Mutating the view writes *around* the durability model (the
        fault injector uses this deliberately: media corruption does
        not pass through the store buffer).
        """
        return self.memory[addr:addr + nbytes]

    def _touched_lines(self, addr: int, nbytes: int) -> range:
        if nbytes <= 0:
            return range(0)
        return range(addr // self.line_bytes,
                     (addr + nbytes - 1) // self.line_bytes + 1)

    def _snapshot(self, line: int) -> None:
        if line not in self._pending:
            lb = self.line_bytes
            old = self.memory[line * lb:(line + 1) * lb].tobytes()
            self._pending[line] = PendingLine(line, False, old)

    def write(self, addr: int, data) -> None:
        """Store bytes at ``addr`` — visible immediately, durable only
        after the touched lines are flushed *and* fenced."""
        buf = np.frombuffer(bytes(data), dtype=np.uint8) \
            if not isinstance(data, np.ndarray) else \
            np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
        if len(buf) == 0:
            return
        for line in self._touched_lines(addr, len(buf)):
            self._snapshot(line)
            # A re-write of a flushed-but-unfenced line dirties it
            # again: the earlier clwb covered the earlier content only.
            self._pending[line].flushed = False
        self.memory[addr:addr + len(buf)] = buf
        self.lines_written += len(self._touched_lines(addr, len(buf)))

    def flush(self, addr: int, nbytes: int) -> int:
        """``clwb`` every line of ``[addr, addr + nbytes)``; returns how
        many pending lines entered the flush queue."""
        n = 0
        for line in self._touched_lines(addr, nbytes):
            pending = self._pending.get(line)
            if pending is None or pending.flushed:
                continue
            self._fire("flush", line)
            pending.flushed = True
            self.flushes += 1
            n += 1
        return n

    def fence(self) -> int:
        """``sfence``: every flushed line becomes durable (its rollback
        image is dropped); returns how many lines were committed."""
        self._fire("fence", -1)
        self.fences += 1
        done = [ln for ln, p in self._pending.items() if p.flushed]
        for line in done:
            del self._pending[line]
        return len(done)

    def persist(self, addr: int, nbytes: int) -> None:
        """Flush + fence one range — the ``clwb*; sfence`` idiom."""
        self.flush(addr, nbytes)
        self.fence()

    def _fire(self, kind: str, line: int) -> None:
        for hook in self.persist_hooks:
            hook(kind, line)

    # -- crash semantics ---------------------------------------------------

    @property
    def pending_lines(self) -> int:
        """Lines currently outside the persistence domain."""
        return len(self._pending)

    def crash(self, policy: CrashPolicy | None = None) -> int:
        """Power cut: resolve every pending line through ``policy``
        (default :func:`drop_unfenced`) and clear the store buffer.
        Returns how many lines did *not* keep their new content intact.
        """
        policy = policy or drop_unfenced
        lb = self.line_bytes
        damaged = 0
        for line in sorted(self._pending):
            pending = self._pending[line]
            new = self.memory[line * lb:(line + 1) * lb].tobytes()
            durable = policy(pending, new)
            if len(durable) != lb:
                raise ValueError(
                    f"crash policy returned {len(durable)} B for a "
                    f"{lb} B line")
            if durable != new:
                damaged += 1
                self.memory[line * lb:(line + 1) * lb] = np.frombuffer(
                    durable, dtype=np.uint8)
        self._pending.clear()
        return damaged

    def state_digest(self) -> str:
        """SHA-256 over the allocated durable region — equal digests
        mean byte-identical durable state (the idempotence oracle)."""
        import hashlib
        return hashlib.sha256(
            self.memory[:self._tail].tobytes()).hexdigest()
