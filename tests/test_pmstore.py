"""Tests for the erasure-coded PM store, fault injection and scrubbing."""

import numpy as np
import pytest

from repro.pmstore import FaultInjector, PMStore, Scrubber


def _store(**kw):
    defaults = dict(k=4, m=2, block_bytes=256)
    defaults.update(kw)
    return PMStore(**defaults)


# -- basic object API ----------------------------------------------------------

def test_put_get_roundtrip():
    s = _store()
    s.put("a", b"hello pm world")
    assert s.get("a") == b"hello pm world"
    assert s.stats.puts == 1 and s.stats.gets == 1


def test_multiple_objects_pack_into_stripes():
    s = _store()
    for i in range(6):
        s.put(f"obj{i}", bytes([i]) * 100)
    assert s.num_stripes == 1  # 600 B < 1024 B capacity
    for i in range(6):
        assert s.get(f"obj{i}") == bytes([i]) * 100


def test_new_stripe_allocated_when_full():
    s = _store()
    s.put("big1", b"x" * 900)
    s.put("big2", b"y" * 900)
    assert s.num_stripes == 2


@pytest.mark.parametrize("lrc_l", [None, 2], ids=["rs", "lrc"])
def test_fresh_stripe_is_born_consistent_without_an_encode(lrc_l):
    # A fresh stripe is zero-filled PM; RS and LRC are linear, so its
    # parity is the encode of all-zero data: zero.
    s = _store(lrc_l=lrc_l)
    stripe = s._stripes[s._new_stripe()]
    assert not stripe.data.any() and not stripe.parity.any()
    assert np.array_equal(stripe.parity, s._compute_parity(stripe.data))
    assert stripe.checksums == s._stripe_checksums(stripe.data,
                                                   stripe.parity)
    assert s.verify_stripe(0) == []


def test_oversized_object_rejected():
    s = _store()
    with pytest.raises(ValueError, match="shard"):
        s.put("huge", b"z" * 2000)


def test_put_overwrites_key():
    s = _store()
    s.put("k", b"old")
    s.put("k", b"new value")
    assert s.get("k") == b"new value"


def test_delete_and_keys():
    s = _store()
    s.put("a", b"1")
    s.put("b", b"2")
    s.delete("a")
    assert s.keys() == ["b"]
    with pytest.raises(KeyError):
        s.get("a")


def test_mark_lost_validates():
    s = _store()
    s.put("a", b"x")
    with pytest.raises(IndexError):
        s.mark_lost(0, 6)


# -- degraded reads and repair ---------------------------------------------------

def test_degraded_read_through_parity():
    s = _store()
    payload = bytes(range(200))
    s.put("obj", payload)
    s.mark_lost(0, 0)  # the block holding the object's head
    assert s.get("obj") == payload
    assert s.stats.degraded_reads == 1


def test_repair_restores_blocks():
    s = _store()
    payload = b"q" * 800
    s.put("obj", payload)
    before = s.blocks_of(0).copy()
    s.mark_lost(0, 1)
    s.mark_lost(0, 4)   # one data + one parity
    assert s.repair(0) == 2
    assert np.array_equal(s.blocks_of(0), before)
    assert s.get("obj") == payload
    assert s.stats.blocks_repaired == 2


def test_repair_too_many_losses_raises():
    s = _store()
    s.put("obj", b"data")
    for b in (0, 1, 2):
        s.mark_lost(0, b)
    with pytest.raises(ValueError, match="data loss"):
        s.repair(0)


def test_repair_all_covers_every_stripe():
    s = _store()
    s.put("a", b"a" * 900)
    s.put("b", b"b" * 900)
    s.mark_lost(0, 0)
    s.mark_lost(1, 3)
    assert s.repair_all() == 2
    assert s.get("a") == b"a" * 900
    assert s.get("b") == b"b" * 900


def test_lrc_store_local_repair_path():
    s = _store(k=4, m=2, lrc_l=2)
    payload = b"local" * 100
    s.put("obj", payload)
    assert s.parity_blocks == 4  # 2 global + 2 local
    s.mark_lost(0, 0)
    s.repair(0)
    assert s.get("obj") == payload


# -- fault injection ---------------------------------------------------------------

def test_bit_flip_is_silent_but_corrupts():
    s = _store()
    s.put("obj", b"sensitive" * 20)
    inj = FaultInjector(s, seed=1)
    ev = inj.bit_flip(stripe=0, block=0)
    assert ev.kind == "bit_flip"
    # the store itself doesn't notice (no lost mark)...
    assert not s._stripes[0].lost
    # ...but the checksum no longer matches
    assert Scrubber(s).locate(0) == [0]


def test_scribble_corrupts_range():
    s = _store()
    s.put("obj", b"\x00" * 800)
    inj = FaultInjector(s, seed=2)
    inj.scribble(stripe=0, block=2, length=32)
    assert Scrubber(s).locate(0) == [2]


def test_device_loss_hits_every_stripe():
    s = _store()
    s.put("a", b"a" * 900)
    s.put("b", b"b" * 900)
    inj = FaultInjector(s, seed=3)
    events = inj.device_loss(1)
    assert len(events) == 2
    assert all(1 in s._stripes[i].lost for i in range(2))
    s.repair_all()
    assert s.get("a") == b"a" * 900


def test_injector_deterministic():
    def run(seed):
        s = _store()
        s.put("obj", b"x" * 500)
        inj = FaultInjector(s, seed=seed)
        inj.bit_flip()
        return inj.events[0]
    assert run(7) == run(7)
    assert run(7) != run(8)


# -- scrubbing -------------------------------------------------------------------

def test_scrub_clean_store():
    s = _store()
    s.put("obj", b"fine")
    report = Scrubber(s).scrub()
    assert report.clean and report.stripes_scanned == 1


def test_scrub_detects_and_repairs_silent_corruption():
    s = _store()
    payload = b"precious data " * 50
    s.put("obj", payload)
    inj = FaultInjector(s, seed=4)
    inj.bit_flip(stripe=0, block=1, nbits=3)
    inj.scribble(stripe=0, block=4, length=16)  # parity corruption too
    report = Scrubber(s).scrub()
    assert set(report.corrupt_blocks) == {(0, 1), (0, 4)}
    assert report.repaired_blocks == 2
    assert s.get("obj") == payload
    assert Scrubber(s).scrub().clean


def test_scrub_reports_unrepairable():
    s = _store()
    s.put("obj", b"doomed")
    inj = FaultInjector(s, seed=5)
    for b in (0, 1, 2):
        inj.bit_flip(stripe=0, block=b)
    report = Scrubber(s).scrub()
    assert report.unrepairable_stripes == [0]
    assert report.repaired_blocks == 0


def test_scrub_without_repair_only_reports():
    s = _store()
    s.put("obj", b"check me" * 10)
    FaultInjector(s, seed=6).bit_flip(stripe=0, block=0)
    report = Scrubber(s).scrub(repair=False)
    assert report.corrupt_blocks == [(0, 0)]
    assert not Scrubber(s).scrub(repair=False).clean  # still corrupt


def test_scrub_counts_mix_of_lost_and_corrupt():
    s = _store()
    s.put("obj", b"mix" * 100)
    s.mark_lost(0, 3)
    FaultInjector(s, seed=7).bit_flip(stripe=0, block=0)
    report = Scrubber(s).scrub()
    assert report.repaired_blocks == 2


# -- sharded objects -----------------------------------------------------------

def test_put_get_sharded_roundtrip():
    s = _store()
    big = bytes(range(256)) * 20  # 5120 B > 1024 B stripe capacity
    metas = s.put_sharded("big", big)
    assert len(metas) == 5
    assert s.get_sharded("big") == big


def test_sharded_small_object_single_shard():
    s = _store()
    s.put_sharded("small", b"tiny")
    assert s.get_sharded("small") == b"tiny"


def test_sharded_survives_device_loss():
    s = _store()
    payload = bytes(range(256)) * 16
    s.put_sharded("archive", payload)
    inj = FaultInjector(s, seed=11)
    inj.device_loss(0)
    s.repair_all()
    assert s.get_sharded("archive") == payload


def test_sharded_delete_cascades():
    s = _store()
    s.put_sharded("doomed", b"x" * 3000)
    n_before = len(s.keys())
    s.delete("doomed")
    assert all(not k.startswith("doomed") for k in s.keys())
    assert len(s.keys()) < n_before


def test_sharded_degraded_read():
    s = _store()
    payload = b"sharded and degraded " * 150
    s.put_sharded("obj", payload)
    s.mark_lost(0, 1)
    assert s.get_sharded("obj") == payload
    assert s.stats.degraded_reads >= 1


def test_lrc_repairs_beyond_global_budget_via_local_parity():
    """m=1 global + 2 local parities: two erasures in different groups
    are repairable even though they exceed m."""
    s = _store(k=4, m=1, lrc_l=2, block_bytes=256)
    payload = b"over-budget" * 60
    s.put("obj", payload)
    s.mark_lost(0, 0)   # group 0 data
    s.mark_lost(0, 3)   # group 1 data
    assert s.repair(0) == 2
    assert s.get("obj") == payload


def test_repair_failure_message_mentions_data_loss():
    s = _store()
    s.put("obj", b"gone")
    for b in range(3):
        s.mark_lost(0, b)
    with pytest.raises(ValueError, match="data loss"):
        s.repair(0)
