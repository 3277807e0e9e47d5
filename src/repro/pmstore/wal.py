"""The stripe write-ahead log: intent -> in-place write -> commit.

Delta parity updates and appends-into-open-stripes are the PM write
hole: data and parity lines land in separate media writes, so a power
cut between them leaves a stripe whose parity silently disagrees with
its data. The store closes the hole with classic redo logging:

1. an **intent record** carrying everything needed to redo the
   transaction (key, placement, payload, full new parity images, the
   post-state checksums) is appended and fenced;
2. the stripe's data and parity lines are written in place and fenced;
3. a **commit record** is appended and fenced — only then does the
   store apply volatile metadata and acknowledge the client.

Every record is CRC-checked, so :meth:`StripeWAL.scan` recovers the
longest durable prefix of the log: a record torn by the crash fails its
checksum and ends the scan (nothing after it can be durable, because
each record is fenced before the protocol proceeds). Recovery then
rolls committed *and* intent-complete transactions forward from their
redo images — an uncommitted transaction was never acknowledged, so
completing it is as correct as dropping it, and unlike dropping it the
roll-forward never needs undo images for half-written stripe lines —
and discards a torn intent outright (the stripe is untouched by the
protocol ordering, so there is nothing to undo).

The log lives in its own :class:`~repro.pmstore.pmem.
PersistenceDomain` — a dedicated device region — so scans start at
address 0 and run contiguously. Checkpoint/truncation is out of scope
(the log is bounded by the region; see ``docs/robustness.md``).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.pmstore.pmem import PersistenceDomain

#: Record types.
REC_INTENT = 1
REC_COMMIT = 2

#: Transaction ops (the ``op`` header byte of an intent).
OP_PUT = 1
OP_UPDATE = 2
OP_DELETE = 3
OP_MANIFEST = 4

OP_NAMES = {OP_PUT: "put", OP_UPDATE: "update", OP_DELETE: "delete",
            OP_MANIFEST: "manifest"}

_HDR = struct.Struct("<2sBBIII")   # magic, rtype, op, txid, body_len, crc
_MAGIC = b"WL"
_META = struct.Struct("<iBQIII")   # sid, new_stripe, stripe_addr,
                                   # offset, length, used_after


class WALFull(RuntimeError):
    """The log region is exhausted (checkpointing is out of scope)."""


@dataclass(frozen=True)
class TxIntent:
    """Decoded intent record — the redo image of one transaction.

    ``sid == -1`` marks a shard-manifest entry (metadata only, like
    :class:`~repro.pmstore.store.ObjectMeta` with ``stripe == -1``).
    """

    txid: int
    op: int
    key: str
    sid: int
    new_stripe: bool
    stripe_addr: int
    offset: int
    length: int
    used_after: int
    payload: bytes
    parity: bytes
    checksums: tuple[int, ...]

    @property
    def op_name(self) -> str:
        return OP_NAMES.get(self.op, str(self.op))


def _encode_intent(tx: TxIntent) -> bytes:
    key = tx.key.encode("utf-8")
    parts = [
        struct.pack("<H", len(key)), key,
        _META.pack(tx.sid, int(tx.new_stripe), tx.stripe_addr,
                   tx.offset, tx.length, tx.used_after),
        struct.pack("<I", len(tx.payload)), tx.payload,
        struct.pack("<I", len(tx.parity)), tx.parity,
        struct.pack("<H", len(tx.checksums)),
        struct.pack(f"<{len(tx.checksums)}I", *tx.checksums),
    ]
    return b"".join(parts)


def _decode_intent(txid: int, op: int, body: bytes) -> TxIntent:
    pos = 0
    (key_len,) = struct.unpack_from("<H", body, pos)
    pos += 2
    key = body[pos:pos + key_len].decode("utf-8")
    pos += key_len
    sid, new_stripe, addr, offset, length, used = _META.unpack_from(body, pos)
    pos += _META.size
    (plen,) = struct.unpack_from("<I", body, pos)
    pos += 4
    payload = body[pos:pos + plen]
    pos += plen
    (qlen,) = struct.unpack_from("<I", body, pos)
    pos += 4
    parity = body[pos:pos + qlen]
    pos += qlen
    (ncks,) = struct.unpack_from("<H", body, pos)
    pos += 2
    checksums = struct.unpack_from(f"<{ncks}I", body, pos)
    return TxIntent(txid, op, key, sid, bool(new_stripe), addr, offset,
                    length, used, bytes(payload), bytes(parity),
                    tuple(checksums))


def _crc(rtype: int, op: int, txid: int, body: bytes) -> int:
    head = struct.pack("<BBI", rtype, op, txid)
    return zlib.crc32(body, zlib.crc32(head))


class StripeWAL:
    """Append-only, CRC-checked redo log in a persistence domain."""

    def __init__(self, capacity_bytes: int = 32 << 20):
        self.domain = PersistenceDomain(capacity_bytes)
        self._head = 0          # volatile append cursor
        self._next_txid = 1     # volatile; recovery resets from scan

    # -- append ------------------------------------------------------------

    def begin_txid(self) -> int:
        """Claim the next transaction id (volatile until logged)."""
        txid = self._next_txid
        self._next_txid += 1
        return txid

    def _append(self, rtype: int, op: int, txid: int, body: bytes) -> int:
        rec = _HDR.pack(_MAGIC, rtype, op, txid, len(body),
                        _crc(rtype, op, txid, body)) + body
        addr = self._head
        if addr + len(rec) > self.domain.capacity:
            raise WALFull(
                f"log region exhausted appending {len(rec)} B at {addr}")
        # Ordered append: the record is written, flushed and fenced
        # before the caller proceeds — a later record can never be
        # durable while an earlier one is torn.
        self.domain.write(addr, rec)
        self.domain.persist(addr, len(rec))
        self._head = addr + len(rec)
        self.domain.reset_allocator(self._head)
        return addr

    def log_intent(self, tx: TxIntent) -> int:
        """Append + fence one intent record; returns its address."""
        return self._append(REC_INTENT, tx.op, tx.txid, _encode_intent(tx))

    def log_commit(self, txid: int, op: int = 0) -> int:
        """Append + fence one commit record; returns its address."""
        return self._append(REC_COMMIT, op, txid, b"")

    @property
    def bytes_logged(self) -> int:
        """Bytes appended so far (volatile view of the head)."""
        return self._head

    # -- recovery scan -----------------------------------------------------

    def scan(self) -> tuple[list[TxIntent], set[int], int]:
        """Decode the longest valid durable prefix of the log.

        Returns ``(intents_in_order, committed_txids, bytes_scanned)``
        and repositions the append head / txid counter past what was
        found — the log keeps growing monotonically across recoveries,
        which is what makes double replay idempotent.
        """
        mem = self.domain.memory
        pos = 0
        intents: list[TxIntent] = []
        committed: set[int] = set()
        max_txid = 0
        while pos + _HDR.size <= self.domain.capacity:
            magic, rtype, op, txid, blen, crc = _HDR.unpack_from(
                mem[pos:pos + _HDR.size].tobytes())
            if magic != _MAGIC or rtype not in (REC_INTENT, REC_COMMIT):
                break
            end = pos + _HDR.size + blen
            if end > self.domain.capacity:
                break
            body = mem[pos + _HDR.size:end].tobytes()
            if _crc(rtype, op, txid, body) != crc:
                break   # torn record: nothing after it can be durable
            if rtype == REC_INTENT:
                intents.append(_decode_intent(txid, op, body))
            else:
                committed.add(txid)
            max_txid = max(max_txid, txid)
            pos = end
        self._head = pos
        self._next_txid = max_txid + 1
        self.domain.reset_allocator(pos)
        return intents, committed, pos
