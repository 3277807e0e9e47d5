"""The erasure-coded PM object store.

Objects are packed into fixed-geometry stripes (k data + m parity
blocks, one block per simulated PM "device region" so correlated loss
maps to block loss). The store keeps per-block CRC32 checksums — the
standard trick (Pangolin, NOVA-Fortis) that turns silent corruption
into locatable *erasures*, which RS can then repair.

Stripe bytes live in a :class:`~repro.pmstore.pmem.PersistenceDomain`
(256 B-line flush/fence durability, crash tearing) and every mutating
operation — ``put``, ``delete``, the delta-parity ``update`` path and
the shard manifest — is a logged, checksummed, idempotent transaction
through the :class:`~repro.pmstore.wal.StripeWAL`: intent record, in-
place data+parity lines, commit record. :meth:`PMStore.crash` /
:meth:`PMStore.recover` simulate a power cut at any point and replay
the log, so an acknowledged write survives every crash point and a
partially applied update can never leave data and parity disagreeing
(the PM small-write hole).

The store codes functionally and keeps no time: simulated coding cost
is charged by the service that drives it
(:meth:`~repro.service.service.ErasureCodingService._coding_makespan`).
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.codes.lrc import LRCCode
from repro.codes.rs import RSCode
from repro.pmstore.pmem import CrashPolicy, PersistenceDomain
from repro.pmstore.wal import (
    OP_DELETE,
    OP_MANIFEST,
    OP_PUT,
    OP_UPDATE,
    StripeWAL,
    TxIntent,
)


@dataclass
class ObjectMeta:
    """Where one object lives."""

    key: str
    stripe: int
    offset: int          # byte offset within the stripe's data space
    length: int


@dataclass
class StoreStats:
    """Operational counters.

    Counters are applied strictly *after* a transaction's commit
    record is durable, so a crash mid-write never shows up as bytes
    written — stats count acknowledged work only.
    """

    puts: int = 0
    gets: int = 0
    updates: int = 0
    degraded_reads: int = 0
    repairs: int = 0
    blocks_repaired: int = 0
    bytes_written: int = 0
    bytes_read: int = 0


@dataclass
class RecoveryReport:
    """What one :meth:`PMStore.recover` pass found and did."""

    txns_seen: int = 0
    committed: int = 0
    #: Intent-complete but uncommitted transactions completed by replay
    #: (never acknowledged, so completing them is as correct as
    #: dropping them — and needs no undo images).
    rolled_forward: int = 0
    stripes_recovered: int = 0
    objects_recovered: int = 0
    lines_redone: int = 0
    wal_bytes_scanned: int = 0
    #: Blocks whose durable content disagrees with the recovered
    #: checksum — pre-crash silent corruption surviving the cut
    #: (recovery preserves detectability; the scrubber repairs it).
    checksum_mismatches: int = 0

    def summary(self) -> str:
        """One deterministic report line."""
        return (f"txns={self.txns_seen} committed={self.committed} "
                f"rolled_forward={self.rolled_forward} "
                f"stripes={self.stripes_recovered} "
                f"objects={self.objects_recovered} "
                f"lines_redone={self.lines_redone} "
                f"wal_bytes={self.wal_bytes_scanned} "
                f"checksum_mismatches={self.checksum_mismatches}")


@dataclass
class _Stripe:
    addr: int                         # base address in the domain
    data: np.ndarray                  # (k, block) uint8 view
    parity: np.ndarray                # (m [+l], block) uint8 view
    checksums: list[int]              # per stripe-global block
    used: int = 0                     # bytes of data space consumed
    lost: set = field(default_factory=set)  # stripe-global indices marked lost


class PMStore:
    """A reliability-coded object store over (simulated) PM.

    Parameters
    ----------
    k, m:
        Stripe geometry.
    block_bytes:
        Block size (also the device-region granularity).
    lrc_l:
        If set, protect with LRC(k, m, l) instead of RS — single-block
        losses then repair by reading one group only.
    verify_reads:
        Verify checksums (and repair mismatches) before serving reads.
    pm_capacity_bytes, wal_capacity_bytes:
        Sizes of the stripe region and the WAL region (both are
        zero-filled virtual memory — unused capacity costs nothing).
    """

    def __init__(self, k: int, m: int, block_bytes: int = 4096,
                 lrc_l: int | None = None,
                 verify_reads: bool = False,
                 pm_capacity_bytes: int = 64 << 20,
                 wal_capacity_bytes: int = 32 << 20):
        self.k, self.m = k, m
        self.block_bytes = block_bytes
        self.lrc_l = lrc_l
        self.code = LRCCode(k, m, lrc_l) if lrc_l else RSCode(k, m)
        #: Verify checksums (and repair mismatches) before serving reads
        #: — catches silent corruption at read time instead of waiting
        #: for the next scrub, at one CRC pass per get.
        self.verify_reads = verify_reads
        self.stats = StoreStats()
        #: Stripe bytes: a flush/fence persistence domain at XPLine
        #: granularity. Crash consistency lives here.
        self.domain = PersistenceDomain(pm_capacity_bytes)
        #: The stripe WAL, in its own domain (a dedicated log region).
        self.wal = StripeWAL(capacity_bytes=wal_capacity_bytes)
        self._stripes: list[_Stripe] = []
        self._objects: dict[str, ObjectMeta] = {}
        #: Callbacks fired at the top of every put/get as ``hook(op,
        #: key)``. A hook may raise (e.g. :class:`~repro.pmstore.faults.
        #: TransientFault`) to model an operation-level failure — the
        #: service layer's retry path hangs off this.
        self.fault_hooks: list[Callable[[str, str], None]] = []
        self._lost_devices: set[int] = set()
        #: Loss marks captured at :meth:`crash` — erasure marks are
        #: cluster control-plane metadata (held off-PM), so recovery
        #: reinstates them rather than forgetting the damage.
        self._saved_marks: dict[int, set[int]] = {}

    # -- geometry helpers --------------------------------------------------

    @property
    def stripe_data_bytes(self) -> int:
        """Object-payload capacity of one stripe."""
        return self.k * self.block_bytes

    @property
    def parity_blocks(self) -> int:
        """Parity blocks per stripe (global + local for LRC)."""
        return self.m + (self.lrc_l or 0)

    @property
    def _stripe_bytes(self) -> int:
        return (self.k + self.parity_blocks) * self.block_bytes

    def _checksum(self, block: np.ndarray) -> int:
        return zlib.crc32(block.tobytes())

    def add_fault_hook(self, hook: Callable[[str, str], None]) -> None:
        """Register an operation-level fault hook (see ``fault_hooks``)."""
        self.fault_hooks.append(hook)

    def _fire_hooks(self, op: str, key: str) -> None:
        for hook in self.fault_hooks:
            hook(op, key)

    # -- stripe management ---------------------------------------------------

    def _compute_parity(self, data: np.ndarray) -> np.ndarray:
        """All parity blocks (global [+ local]) for ``(k, block)`` data."""
        if self.lrc_l:
            gp, lp = self.code.encode(data)
            return np.vstack([gp, lp])
        return self.code.encode_blocks(data)

    def _stripe_checksums(self, data: np.ndarray,
                          parity: np.ndarray) -> list[int]:
        out = [self._checksum(data[i]) for i in range(self.k)]
        out += [self._checksum(parity[i]) for i in range(len(parity))]
        return out

    def _materialize_stripe(self, addr: int) -> _Stripe:
        """Build a stripe whose blocks are views into the domain."""
        bb = self.block_bytes
        data = self.domain.view(addr, self.k * bb).reshape(self.k, bb)
        parity = self.domain.view(addr + self.k * bb,
                                  self.parity_blocks * bb
                                  ).reshape(self.parity_blocks, bb)
        return _Stripe(addr=addr, data=data, parity=parity,
                       checksums=self._stripe_checksums(data, parity))

    def _new_stripe(self) -> int:
        addr = self.domain.allocate(self._stripe_bytes)
        # Freshly allocated PM is zero-filled, and RS and LRC are linear,
        # so all-zero data has all-zero parity: the stripe is born
        # consistent with nothing encoded or written.
        stripe = self._materialize_stripe(addr)
        # A dead device region is dead for freshly allocated stripes too:
        # logical writes still land (parity carries them), reads degrade.
        stripe.lost |= self._lost_devices
        self._stripes.append(stripe)
        return len(self._stripes) - 1

    def _write_block_durable(self, sid: int, index: int,
                             block: np.ndarray) -> None:
        """Write one stripe-global block straight to durable state
        (flush + fence; used by repair, which is pure reconstruction
        and therefore idempotent without WAL protection)."""
        addr = self._stripes[sid].addr + index * self.block_bytes
        self.domain.write(addr, block)
        self.domain.persist(addr, self.block_bytes)

    def verify_stripe(self, sid: int, repair: bool = True) -> list[int]:
        """Checksum-verify every non-lost block of stripe ``sid``.

        Mismatching blocks (silent corruption) are converted to
        erasures; with ``repair`` they are rebuilt through parity on the
        spot (best-effort — an unrepairable stripe keeps its loss marks
        for the scrubber/repair queue to deal with). Returns the
        stripe-global indices found corrupt.
        """
        stripe = self._stripes[sid]
        blocks = self.blocks_of(sid)
        corrupt = [
            i for i in range(len(blocks))
            if i not in stripe.lost
            and self._checksum(blocks[i]) != stripe.checksums[i]
        ]
        for block in corrupt:
            stripe.lost.add(block)
        if corrupt and repair:
            try:
                self.repair(sid)
            except ValueError:
                pass  # beyond parity budget: leave the erasure marks
        return corrupt

    # -- the transaction machinery ------------------------------------------

    def _persist_stripe_write(self, stripe: _Stripe, offset: int,
                              payload: bytes, parity: np.ndarray) -> None:
        """Step 2 of a transaction: in-place data+parity lines, one
        fence ordering both behind the already-durable intent."""
        if payload:
            data_addr = stripe.addr + offset
            self.domain.write(data_addr, payload)
            self.domain.flush(data_addr, len(payload))
        par_addr = stripe.addr + self.k * self.block_bytes
        self.domain.write(par_addr, parity)
        self.domain.flush(par_addr, parity.size)
        self.domain.fence()

    def _replace_object(self, key: str, meta: ObjectMeta) -> None:
        """Swap in a new mapping, cascading away a stale shard
        manifest's shard entries (metadata is replaced atomically at
        the commit point — there is no window where ``key`` is gone)."""
        old = self._objects.get(key)
        if old is not None and old.stripe == -1:
            for i in range(old.offset):
                self._objects.pop(f"{key}#{i}", None)
        self._objects[key] = meta

    def _apply_commit(self, tx: TxIntent) -> None:
        """Apply one transaction's volatile metadata (the commit point:
        stats and checksums never reflect a torn write)."""
        if tx.op == OP_DELETE:
            meta = self._objects.pop(tx.key, None)
            if meta is not None and meta.stripe == -1:
                for i in range(meta.offset):
                    self._objects.pop(f"{tx.key}#{i}", None)
            return
        if tx.op == OP_MANIFEST:
            self._objects[tx.key] = ObjectMeta(
                key=tx.key, stripe=-1, offset=tx.offset, length=tx.length)
            return
        stripe = self._stripes[tx.sid]
        stripe.used = tx.used_after
        stripe.checksums = list(tx.checksums)
        self._replace_object(tx.key, ObjectMeta(
            key=tx.key, stripe=tx.sid, offset=tx.offset, length=tx.length))
        if tx.op == OP_PUT:
            self.stats.puts += 1
        else:
            self.stats.updates += 1
        self.stats.bytes_written += tx.length

    # -- public object API ------------------------------------------------------

    def put(self, key: str, value: bytes) -> ObjectMeta:
        """Store an object (at most one stripe of payload).

        The write is one WAL transaction: the intent (carrying the
        payload, the new parity images and the post-state checksums) is
        fenced before any stripe line is touched, and metadata/stats
        move only after the commit record — so a power cut at any line
        boundary leaves either the old store or the new one, never the
        write hole.
        """
        self._fire_hooks("put", key)
        if len(value) > self.stripe_data_bytes:
            raise ValueError(
                f"object of {len(value)} B exceeds stripe capacity "
                f"{self.stripe_data_bytes} B; shard it")
        value = bytes(value)
        sid = None
        for i, s in enumerate(self._stripes):
            if s.used + len(value) <= self.stripe_data_bytes and not s.lost:
                # Write-path verify: re-encoding parity over a silently
                # corrupted neighbor block would *launder* the corruption
                # (fresh parity and checksums computed from bad bytes).
                # Catch and repair it before touching the stripe.
                self.verify_stripe(i)
                if not s.lost:
                    sid = i
                    break
        new_stripe = sid is None
        if new_stripe:
            sid = self._new_stripe()
        stripe = self._stripes[sid]
        offset = stripe.used

        # Compute the complete post-state before touching durable bytes.
        new_data = stripe.data.copy()
        flat = new_data.reshape(-1)
        flat[offset:offset + len(value)] = np.frombuffer(value, dtype=np.uint8)
        parity = self._compute_parity(new_data)
        checksums = self._stripe_checksums(new_data, parity)

        tx = TxIntent(
            txid=self.wal.begin_txid(), op=OP_PUT, key=key, sid=sid,
            new_stripe=new_stripe, stripe_addr=stripe.addr, offset=offset,
            length=len(value), used_after=offset + len(value),
            payload=value, parity=parity.tobytes(),
            checksums=tuple(checksums))
        self.wal.log_intent(tx)
        self._persist_stripe_write(stripe, offset, value, parity)
        self.wal.log_commit(tx.txid, tx.op)
        self._apply_commit(tx)
        return self._objects[key]

    def update(self, key: str, value: bytes) -> ObjectMeta:
        """Overwrite an object in place via the delta-parity path.

        The new value must match the stored length (in-place small
        write). For RS stripes the new parity comes from
        :meth:`~repro.codes.rs.RSCode.update_parity` — read old data,
        XOR the delta through the generator column — instead of a full
        re-encode; LRC falls back to re-encoding. Either way the write
        is WAL-logged exactly like :meth:`put`, which is what keeps the
        delta path (the classic write-hole shape) crash-atomic: after
        recovery the stripe holds entirely-old or entirely-new data and
        parity, never a mix.
        """
        self._fire_hooks("update", key)
        meta = self._objects[key]
        if meta.stripe == -1:
            raise ValueError(
                f"cannot delta-update sharded object {key!r}; re-put it")
        if len(value) != meta.length:
            raise ValueError(
                f"in-place update must keep the length: stored "
                f"{meta.length} B, got {len(value)} B")
        value = bytes(value)
        sid = meta.stripe
        self.verify_stripe(sid)            # anti-laundering, as in put
        stripe = self._stripes[sid]
        if stripe.lost:
            self.repair(sid)               # delta needs trustworthy old data

        new_data = stripe.data.copy()
        flat = new_data.reshape(-1)
        flat[meta.offset:meta.offset + len(value)] = np.frombuffer(
            value, dtype=np.uint8)
        if self.lrc_l or meta.length == 0:
            parity = self._compute_parity(new_data)
        else:
            parity = stripe.parity
            first = meta.offset // self.block_bytes
            last = (meta.offset + meta.length - 1) // self.block_bytes
            for b in range(first, last + 1):
                parity = self.code.update_parity(
                    parity, b, stripe.data[b], new_data[b])
        checksums = self._stripe_checksums(new_data, parity)

        tx = TxIntent(
            txid=self.wal.begin_txid(), op=OP_UPDATE, key=key, sid=sid,
            new_stripe=False, stripe_addr=stripe.addr, offset=meta.offset,
            length=len(value), used_after=stripe.used,
            payload=value, parity=np.asarray(parity, dtype=np.uint8).tobytes(),
            checksums=tuple(checksums))
        self.wal.log_intent(tx)
        self._persist_stripe_write(stripe, meta.offset, value,
                                   np.asarray(parity, dtype=np.uint8))
        self.wal.log_commit(tx.txid, tx.op)
        self._apply_commit(tx)
        return self._objects[key]

    def get(self, key: str) -> bytes:
        """Read an object, transparently repairing through parity if its
        blocks are marked lost (a *degraded read*)."""
        self._fire_hooks("get", key)
        meta = self._objects[key]
        if meta.stripe == -1:  # shard manifest: reassemble transparently
            return self.get_sharded(key)
        if self.verify_reads:
            self.verify_stripe(meta.stripe)
        stripe = self._stripes[meta.stripe]
        blocks_needed = set(
            range(meta.offset // self.block_bytes,
                  (meta.offset + meta.length - 1) // self.block_bytes + 1))
        lost_needed = blocks_needed & stripe.lost
        if lost_needed:
            self.stats.degraded_reads += 1
            recovered = self._decode(meta.stripe, sorted(stripe.lost))
            data = stripe.data.copy()
            for e, block in recovered.items():
                if e < self.k:
                    data[e] = block
        else:
            data = stripe.data
        flat = data.reshape(-1)
        self.stats.gets += 1
        self.stats.bytes_read += meta.length
        return flat[meta.offset:meta.offset + meta.length].tobytes()

    def put_sharded(self, key: str, value: bytes) -> list[ObjectMeta]:
        """Store an object of any size, sharding across stripes.

        Shards are stored as ``key#<i>`` objects plus a ``key`` manifest
        entry recording the shard count; :meth:`get` reassembles
        manifests transparently (:meth:`get_sharded` does it explicitly).
        Each shard is its own transaction and the manifest commits last,
        so a crash mid-shard leaves ``key`` unmapped (never a partial
        object) — the unacknowledged shards are garbage, not damage.
        """
        cap = self.stripe_data_bytes
        shards = [value[i:i + cap] for i in range(0, max(1, len(value)), cap)]
        metas = [self.put(f"{key}#{i}", shard)
                 for i, shard in enumerate(shards)]
        tx = TxIntent(
            txid=self.wal.begin_txid(), op=OP_MANIFEST, key=key, sid=-1,
            new_stripe=False, stripe_addr=0, offset=len(shards),
            length=len(value), used_after=0, payload=b"", parity=b"",
            checksums=())
        self.wal.log_intent(tx)
        self.wal.log_commit(tx.txid, tx.op)
        self._apply_commit(tx)
        return metas

    def get_sharded(self, key: str) -> bytes:
        """Reassemble an object stored with :meth:`put_sharded`."""
        manifest = self._objects[key]
        nshards, length = manifest.offset, manifest.length
        data = b"".join(self.get(f"{key}#{i}") for i in range(nshards))
        return data[:length]

    def delete(self, key: str) -> None:
        """Drop an object (space is not compacted; this is a test store).

        Sharded objects cascade to their shards. Deletion is metadata-
        only, but still a logged transaction: an acknowledged delete
        stays deleted across any crash.
        """
        meta = self._objects[key]  # KeyError surfaces, as before
        tx = TxIntent(
            txid=self.wal.begin_txid(), op=OP_DELETE, key=key,
            sid=meta.stripe, new_stripe=False, stripe_addr=0,
            offset=meta.offset, length=meta.length, used_after=0,
            payload=b"", parity=b"", checksums=())
        self.wal.log_intent(tx)
        self.wal.log_commit(tx.txid, tx.op)
        self._apply_commit(tx)

    def keys(self) -> list[str]:
        """All stored object keys."""
        return list(self._objects)

    # -- crash + recovery ----------------------------------------------------

    def crash(self, policy: CrashPolicy | None = None) -> int:
        """Power cut *now*: resolve every unfenced line through
        ``policy`` (default: drop them all) and forget all volatile
        state — object table, stripe table, checksums, stats. Loss
        marks are captured first (erasure marks are control-plane
        metadata held off-PM) for :meth:`recover` to reinstate. Returns
        how many lines lost or tore their new content.
        """
        self._saved_marks = {sid: set(s.lost)
                             for sid, s in enumerate(self._stripes)
                             if s.lost}
        damaged = self.domain.crash(policy)
        damaged += self.wal.domain.crash(policy)
        self._stripes = []
        self._objects = {}
        self.stats = StoreStats()
        return damaged

    def recover(self) -> RecoveryReport:
        """Rebuild the store from durable state by replaying the WAL.

        Committed transactions are redone from their intent images
        (idempotent — replaying twice writes the same bytes); intent-
        complete uncommitted transactions are rolled forward and their
        commit record appended; a torn trailing intent is discarded
        (its stripe was never touched). Safe to call repeatedly: the
        durable state reached is a fixed point.
        """
        report = RecoveryReport()
        intents, committed, scanned = self.wal.scan()
        report.wal_bytes_scanned = scanned
        self._stripes = []
        self._objects = {}
        high_water = 0
        for tx in intents:
            report.txns_seen += 1
            if tx.txid in committed:
                report.committed += 1
            else:
                report.rolled_forward += 1
            if tx.sid >= 0 and tx.op in (OP_PUT, OP_UPDATE):
                if tx.sid == len(self._stripes):
                    # Stripe creation replays in txid order, so sids
                    # are dense and arrive exactly in sequence.
                    self._stripes.append(
                        self._materialize_stripe(tx.stripe_addr))
                    report.stripes_recovered += 1
                stripe = self._stripes[tx.sid]
                # Redo the stripe writes from the intent's images —
                # recovery is itself crash-consistent (flush+fence).
                self._persist_stripe_write(stripe, tx.offset, tx.payload,
                                           np.frombuffer(tx.parity,
                                                         dtype=np.uint8))
                report.lines_redone += (
                    (len(tx.payload) + len(tx.parity) - 1)
                    // self.domain.line_bytes + 1)
                high_water = max(high_water,
                                 tx.stripe_addr + self._stripe_bytes)
            if tx.txid not in committed:
                self.wal.log_commit(tx.txid, tx.op)
            self._apply_commit(tx)
        # Replay counted every commit as a fresh op; recovery rebuilds
        # state, it does not serve traffic — reset the counters.
        self.stats = StoreStats()
        self.domain.reset_allocator(high_water)
        # Reinstate control-plane loss marks (device + block erasures).
        for sid, marks in self._saved_marks.items():
            if sid < len(self._stripes):
                self._stripes[sid].lost |= marks
        for stripe in self._stripes:
            stripe.lost |= self._lost_devices
        for stripe in self._stripes:
            report.checksum_mismatches += sum(
                1 for i, block in enumerate(np.vstack([stripe.data,
                                                       stripe.parity]))
                if i not in stripe.lost
                and self._checksum(block) != stripe.checksums[i])
        report.objects_recovered = len(self._objects)
        return report

    def state_digest(self) -> str:
        """SHA-256 over durable memory + recovered metadata — the
        oracle for the idempotent-replay invariant (two digests equal
        means byte-identical durable state *and* identical volatile
        reconstruction)."""
        h = hashlib.sha256()
        h.update(self.domain.state_digest().encode())
        h.update(self.wal.domain.state_digest().encode())
        for key in sorted(self._objects):
            meta = self._objects[key]
            h.update(f"{key}|{meta.stripe}|{meta.offset}|{meta.length};"
                     .encode())
        for stripe in self._stripes:
            h.update(f"{stripe.addr}|{stripe.used}|"
                     f"{tuple(stripe.checksums)}|"
                     f"{tuple(sorted(stripe.lost))};".encode())
        return h.hexdigest()

    # -- failure handling ----------------------------------------------------

    def blocks_of(self, sid: int) -> np.ndarray:
        """All stripe-global blocks of stripe ``sid`` (data first)."""
        s = self._stripes[sid]
        return np.vstack([s.data, s.parity])

    def meta_of(self, key: str) -> ObjectMeta:
        """Placement metadata of one stored object."""
        return self._objects[key]

    def lost_blocks(self, sid: int) -> frozenset[int]:
        """Stripe-global indices currently marked lost in stripe ``sid``."""
        return frozenset(self._stripes[sid].lost)

    def stripes_with_losses(self) -> list[int]:
        """Stripe ids that currently carry loss marks (repair backlog)."""
        return [sid for sid, s in enumerate(self._stripes) if s.lost]

    def mark_lost(self, sid: int, block: int) -> None:
        """Declare a block erased (device region failed)."""
        total = self.k + self.parity_blocks
        if not 0 <= block < total:
            raise IndexError(f"block {block} out of range 0..{total - 1}")
        self._stripes[sid].lost.add(block)

    @property
    def lost_devices(self) -> frozenset[int]:
        """Block positions currently marked lost store-wide."""
        return frozenset(self._lost_devices)

    def mark_device_lost(self, device: int) -> int:
        """Lose block position ``device`` in every stripe, present and
        future — the correlated "device died" failure the striping is
        designed for. Returns how many existing stripes were affected.
        Reads of affected objects become degraded reads until
        :meth:`restore_device` (or :meth:`repair_all`) runs.
        """
        total = self.k + self.parity_blocks
        if not 0 <= device < total:
            raise IndexError(f"device {device} out of range 0..{total - 1}")
        self._lost_devices.add(device)
        affected = 0
        for stripe in self._stripes:
            if device not in stripe.lost:
                stripe.lost.add(device)
                affected += 1
        return affected

    def restore_device(self, device: int) -> int:
        """Bring a lost device back: rebuild its blocks from parity in
        every stripe and stop marking it in new stripes. Returns blocks
        rebuilt."""
        self._lost_devices.discard(device)
        return self.repair_all()

    def unmark_device(self, device: int) -> None:
        """Stop marking ``device`` lost in new stripes, *without* the
        bulk rebuild of :meth:`restore_device` — for callers (the
        self-healing repair queue) that have already rebuilt its blocks
        stripe-by-stripe under their own pacing."""
        self._lost_devices.discard(device)

    def is_degraded(self, key: str) -> bool:
        """Whether reading ``key`` right now requires parity repair."""
        meta = self._objects[key]
        if meta.stripe == -1:  # shard manifest: degraded if any shard is
            return any(self.is_degraded(f"{key}#{i}")
                       for i in range(meta.offset))
        stripe = self._stripes[meta.stripe]
        blocks_needed = set(
            range(meta.offset // self.block_bytes,
                  (meta.offset + meta.length - 1) // self.block_bytes + 1))
        return bool(blocks_needed & stripe.lost)

    def _decode(self, sid: int, erased: list[int]) -> dict[int, np.ndarray]:
        stripe = self._stripes[sid]
        blocks = self.blocks_of(sid)
        avail = {i: blocks[i] for i in range(len(blocks)) if i not in erased}
        return self.code.decode(avail, erased)

    def repair(self, sid: int) -> int:
        """Rebuild every lost block of a stripe; returns how many.

        The plain-RS budget is ``m`` erasures; LRC stripes can exceed it
        when local parities absorb part of the damage, so the store
        attempts the decode and reports data loss only when it is truly
        unrecoverable. Repaired blocks are persisted (flush + fence)
        straight to durable state: reconstruction is idempotent, so it
        needs no WAL protection.
        """
        stripe = self._stripes[sid]
        if not stripe.lost:
            return 0
        # Anti-laundering: decode inputs must be trustworthy. A silently
        # corrupted "available" block would reconstruct garbage *with a
        # fresh matching checksum* — so CRC-check every input first and
        # promote mismatches to erasures.
        blocks = self.blocks_of(sid)
        for i in range(len(blocks)):
            if (i not in stripe.lost
                    and self._checksum(blocks[i]) != stripe.checksums[i]):
                stripe.lost.add(i)
        erased = sorted(stripe.lost)
        try:
            out = self._decode(sid, erased)
        except ValueError as exc:
            raise ValueError(
                f"stripe {sid} lost {len(erased)} blocks beyond repair "
                f"capacity: data loss") from exc
        for e, block in out.items():
            self._write_block_durable(sid, e, block)
            stripe.checksums[e] = self._checksum(block)
        stripe.lost.clear()
        self.stats.repairs += 1
        self.stats.blocks_repaired += len(erased)
        return len(erased)

    def repair_all(self) -> int:
        """Repair every stripe with losses; returns blocks rebuilt."""
        return sum(self.repair(sid) for sid in range(len(self._stripes))
                   if self._stripes[sid].lost)

    @property
    def num_stripes(self) -> int:
        return len(self._stripes)
