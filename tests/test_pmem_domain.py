"""The persistence-domain model and the stripe WAL, in isolation."""

import numpy as np
import pytest

from repro.pmstore import (
    ATOM_BYTES,
    PersistenceDomain,
    PersistenceDomainFull,
    StripeWAL,
    TxIntent,
    WALFull,
    drop_unfenced,
    keep_flushed,
    seeded_line_policy,
)
from repro.pmstore.wal import OP_PUT


# -- durability semantics ----------------------------------------------------


def test_write_visible_immediately_but_not_durable():
    dom = PersistenceDomain(4096)
    dom.write(0, b"hello")
    assert dom.view(0, 5).tobytes() == b"hello"  # store-to-load forwarding
    assert dom.pending_lines == 1
    dom.crash()
    assert dom.view(0, 5).tobytes() == b"\x00" * 5  # dropped


def test_flush_alone_is_not_durable_fence_is():
    dom = PersistenceDomain(4096)
    dom.write(0, b"abc")
    dom.flush(0, 3)
    other = PersistenceDomain(4096)
    other.write(0, b"abc")
    other.flush(0, 3)
    other.fence()
    dom.crash()        # default: flushed-but-unfenced still dropped
    other.crash()
    assert dom.view(0, 3).tobytes() == b"\x00\x00\x00"
    assert other.view(0, 3).tobytes() == b"abc"


def test_keep_flushed_policy_keeps_flushed_drops_dirty():
    dom = PersistenceDomain(4096)
    dom.write(0, b"AA")        # line 0, flushed below
    dom.write(256, b"BB")      # line 1, never flushed
    dom.flush(0, 2)
    dom.crash(keep_flushed)
    assert dom.view(0, 2).tobytes() == b"AA"
    assert dom.view(256, 2).tobytes() == b"\x00\x00"


def test_rewrite_of_flushed_line_dirties_it_again():
    dom = PersistenceDomain(4096)
    dom.write(0, b"one")
    dom.flush(0, 3)
    dom.write(1, b"X")   # same line, after the clwb
    dom.crash(keep_flushed)
    # the earlier clwb covered the earlier content only: line dropped
    assert dom.view(0, 3).tobytes() == b"\x00\x00\x00"


def test_fence_drops_rollback_images_permanently():
    dom = PersistenceDomain(4096)
    dom.write(0, b"abc")
    dom.persist(0, 3)
    assert dom.pending_lines == 0
    dom.write(0, b"xyz")   # new epoch: snapshot is the durable "abc"
    dom.crash()
    assert dom.view(0, 3).tobytes() == b"abc"


def test_tear_policy_splits_at_atom_boundary_deterministically():
    damaged = []
    for _ in range(2):
        dom = PersistenceDomain(4096)
        base = bytes(range(64)) * 4
        dom.write(0, base)
        dom.persist(0, 256)
        dom.write(0, bytes(255 - b for b in base))
        n = dom.crash(seeded_line_policy(np.random.default_rng(7)))
        damaged.append((n, dom.view(0, 256).tobytes()))
    assert damaged[0] == damaged[1]  # same seed, same outcome
    content = damaged[0][1]
    if content not in (base, bytes(255 - b for b in base)):
        # torn: new prefix + old suffix, cut on an 8 B boundary
        cuts = [i for i in range(0, 257, ATOM_BYTES)
                if content[:i] == bytes(255 - b for b in base)[:i]
                and content[i:] == base[i:]]
        assert cuts


def test_crash_returns_damage_count_and_clears_pending():
    dom = PersistenceDomain(4096)
    dom.write(0, b"a")
    dom.write(256, b"b")
    dom.write(512, b"c")
    dom.persist(512, 1)
    assert dom.crash() == 2
    assert dom.pending_lines == 0


# -- persist hooks (the crash-point boundaries) ------------------------------


def test_hooks_fire_per_flushed_line_and_per_fence():
    dom = PersistenceDomain(4096)
    fired = []
    dom.persist_hooks.append(lambda kind, line: fired.append((kind, line)))
    dom.write(0, b"x" * 300)   # spans lines 0 and 1
    dom.persist(0, 300)
    assert fired == [("flush", 0), ("flush", 1), ("fence", -1)]


def test_hook_raising_models_power_cut_before_the_op():
    class Cut(Exception):
        pass

    dom = PersistenceDomain(4096)

    def cut(kind, line):
        raise Cut

    dom.write(0, b"zz")
    dom.persist_hooks.append(cut)
    with pytest.raises(Cut):
        dom.flush(0, 2)
    dom.persist_hooks.clear()
    # the flush never happened: line still dirty, a crash drops it
    dom.crash()
    assert dom.view(0, 2).tobytes() == b"\x00\x00"


# -- allocation --------------------------------------------------------------


def test_allocate_is_line_aligned_and_bounded():
    dom = PersistenceDomain(1024, line_bytes=256)
    assert dom.allocate(1) == 0
    assert dom.allocate(300) == 256   # aligned up
    with pytest.raises(PersistenceDomainFull):
        dom.allocate(512)
    dom.reset_allocator(256)
    assert dom.allocate(256) == 256


def test_state_digest_covers_allocated_region_only():
    dom = PersistenceDomain(4096)
    dom.allocate(256)
    d0 = dom.state_digest()
    dom.write(0, b"q")
    assert dom.state_digest() != d0
    dom.write(2048, b"q")          # beyond the watermark: not hashed
    assert dom.view(2048, 1).tobytes() == b"q"
    d1 = dom.state_digest()
    dom.crash()                    # drops both writes
    assert dom.state_digest() == d0 != d1


# -- the stripe WAL ----------------------------------------------------------


def _intent(txid, key="k", payload=b"pay", parity=b"par",
            checksums=(1, 2, 3)):
    return TxIntent(txid=txid, op=OP_PUT, key=key, sid=0, new_stripe=True,
                    stripe_addr=0, offset=0, length=len(payload),
                    used_after=len(payload), payload=payload, parity=parity,
                    checksums=checksums)


def test_wal_roundtrip_intent_and_commit():
    wal = StripeWAL(capacity_bytes=1 << 16)
    tx = _intent(wal.begin_txid(), key="obj/1", payload=b"\x01" * 100)
    wal.log_intent(tx)
    wal.log_commit(tx.txid, tx.op)
    intents, committed, scanned = wal.scan()
    assert intents == [tx]
    assert committed == {tx.txid}
    assert scanned == wal.bytes_logged
    assert wal.begin_txid() == tx.txid + 1  # scan resets the counter


def test_wal_scan_stops_at_torn_tail_record():
    wal = StripeWAL(capacity_bytes=1 << 16)
    t1 = _intent(wal.begin_txid())
    wal.log_intent(t1)
    wal.log_commit(t1.txid)
    # a second intent whose append is cut before its fence: the crash
    # drops every line of the record
    t2 = _intent(wal.begin_txid(), payload=b"\x02" * 500)
    head = wal.bytes_logged
    wal.domain.persist_hooks.append(
        lambda kind, line: (_ for _ in ()).throw(RuntimeError("cut")))
    with pytest.raises(RuntimeError):
        wal.log_intent(t2)
    wal.domain.persist_hooks.clear()
    wal.domain.crash()
    intents, committed, scanned = wal.scan()
    assert intents == [t1]
    assert committed == {t1.txid}
    assert scanned == head


def test_wal_scan_rejects_corrupt_crc():
    wal = StripeWAL(capacity_bytes=1 << 16)
    t1 = _intent(wal.begin_txid())
    wal.log_intent(t1)
    # corrupt one payload byte in place (media corruption on the log)
    wal.domain.memory[40] ^= 0xFF
    intents, _, scanned = wal.scan()
    assert intents == []
    assert scanned == 0


def test_wal_full_is_reported():
    wal = StripeWAL(capacity_bytes=512)
    with pytest.raises(WALFull):
        for _ in range(10):
            tx = _intent(wal.begin_txid(), payload=b"\x00" * 100)
            wal.log_intent(tx)
