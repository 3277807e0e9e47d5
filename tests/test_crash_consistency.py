"""Crash-consistent PMStore: WAL transactions, recovery, the harness,
and the service/chaos integration of power cuts."""

import numpy as np
import pytest

from repro.chaos import CANNED_CAMPAIGNS, DurabilityAuditor
from repro.chaos.campaign import ChaosAction
from repro.chaos.engine import CampaignEngine
from repro.crash import (
    CrashInjector,
    PowerCut,
    ServiceRecovery,
    check_all,
    degraded_scenario,
    smoke_scenario,
    soak_scenario,
)
from repro.crash.injector import _Boundary
from repro.pmstore import FaultInjector, PMStore, seeded_line_policy
from repro.service import ErasureCodingService, put_wave


def _store(**kw):
    kw.setdefault("pm_capacity_bytes", 1 << 20)
    kw.setdefault("wal_capacity_bytes", 1 << 20)
    return PMStore(3, 2, block_bytes=256, **kw)


# -- store-level crash + recovery --------------------------------------------


def test_acked_put_survives_crash_and_recover():
    store = _store()
    store.put("a", b"alpha" * 50)
    store.put("b", b"beta" * 40)
    store.delete("a")
    store.crash()
    assert store.keys() == []          # volatile state gone
    rep = store.recover()
    assert rep.txns_seen == 3
    assert sorted(store.keys()) == ["b"]
    assert store.get("b") == b"beta" * 40


def test_update_survives_crash_with_delta_parity():
    store = _store()
    store.put("k", b"\x11" * 500)
    store.update("k", b"\x22" * 500)
    store.crash()
    store.recover()
    assert store.get("k") == b"\x22" * 500
    assert not store.verify_stripe(0)  # data and parity agree


def test_stats_and_checksums_move_only_after_commit():
    """Satellite: a put interrupted before its commit record leaves
    stats untouched — torn writes are never counted as bytes written."""
    store = _store()
    store.put("pre", b"x" * 100)
    base_bytes = store.stats.bytes_written
    boundary = _Boundary(target=None)
    store.domain.persist_hooks.append(boundary)
    store.wal.domain.persist_hooks.append(boundary)
    boundary.count = 0
    boundary.target = 6   # cut mid-way through the next transaction
    boundary.armed = True
    with pytest.raises(PowerCut):
        store.put("torn", b"y" * 200)
    assert store.stats.puts == 1                      # only the acked one
    assert store.stats.bytes_written == base_bytes    # no torn bytes
    assert "torn" not in store.keys()


def test_recovery_is_idempotent_fixed_point():
    store = _store()
    for i in range(4):
        store.put(f"o{i}", bytes([i]) * (100 + 60 * i))
    store.update("o2", b"\x77" * 220)
    store.crash()
    store.recover()
    d1 = store.state_digest()
    store.recover()
    assert store.state_digest() == d1


def test_recover_preserves_loss_marks_across_crash():
    store = _store()
    store.put("a", b"q" * 600)
    store.mark_lost(0, 1)
    store.crash()
    store.recover()
    assert store.lost_blocks(0) == frozenset({1})
    assert store.get("a") == b"q" * 600   # degraded read still works
    assert store.stats.degraded_reads == 1


def test_overwrite_crash_leaves_old_or_new_never_neither():
    """An acked value stays readable until the overwriting transaction
    commits: cut at every boundary of the overwrite and read back."""
    old, new = b"\xAA" * 300, b"\xBB" * 300
    boundary_count = None
    i = 0
    while boundary_count is None or i < boundary_count:
        store = _store()
        store.put("k", old)
        boundary = _Boundary(target=i)
        store.domain.persist_hooks.append(boundary)
        store.wal.domain.persist_hooks.append(boundary)
        try:
            store.put("k", new)
            if boundary_count is None:
                boundary_count = boundary.count
            boundary.armed = False
        except PowerCut:
            boundary.armed = False
            store.crash()
            store.recover()
            assert store.get("k") in (old, new)
        i += 1
    assert boundary_count and boundary_count > 4


def test_wal_transactions_cover_sharded_manifest():
    store = _store()
    big = bytes(range(256)) * 8   # spans multiple stripes
    store.put_sharded("big", big)
    store.crash()
    store.recover()
    assert store.get("big") == big


# -- the crash-point harness -------------------------------------------------


def test_smoke_enumeration_passes_all_invariants():
    injector = CrashInjector(smoke_scenario(0))
    report = injector.enumerate_all(limit=40)
    assert report.points_run == 40
    assert report.all_passed, "\n".join(report.failures)
    assert report.boundaries_total >= 100   # acceptance floor


def test_tear_rounds_pass_and_are_deterministic():
    injector = CrashInjector(smoke_scenario(0))
    r1 = injector.tear_points(8, seed=3)
    r2 = CrashInjector(smoke_scenario(0)).tear_points(8, seed=3)
    assert r1.all_passed, "\n".join(r1.failures)
    assert r1.summary() == r2.summary()
    assert r1.points_sha256 == r2.points_sha256
    r3 = CrashInjector(smoke_scenario(0)).tear_points(8, seed=4)
    assert r1.summary() != r3.summary()
    assert r1.points_sha256 != r3.points_sha256


def test_degraded_scenario_composes_crashes_with_erasures():
    report = CrashInjector(degraded_scenario(0)).enumerate_all(limit=30)
    assert report.all_passed, "\n".join(report.failures)


def test_invariant_checker_flags_a_real_write_hole():
    """Poke a raw hole (data changed, parity not) and the consistency
    invariant must fail — the oracle is not vacuous."""
    store = _store()
    store.put("k", b"\x55" * 500)
    store._stripes[0].data[0][:8] = 99   # bypass WAL and checksums
    results = {r.name: r for r in check_all(store, {})}
    assert not results["data_parity_consistency"].passed
    assert not results["checksum_validity"].passed


# -- service-level recovery --------------------------------------------------


def _loaded_service(n=6):
    svc = ErasureCodingService(3, 2, block_bytes=256)
    auditor = DurabilityAuditor()
    svc.submit_many(put_wave(2, n // 2, payload_bytes=400, seed=5))
    auditor.observe(svc.drain())
    return svc, auditor


def test_service_power_cut_recovers_and_accounts():
    svc, auditor = _loaded_service()
    acked = len(auditor.acknowledged_keys)
    assert acked > 0
    clock_before = svc.clock_ns
    episode = ServiceRecovery(svc, auditor=auditor).power_cut()
    assert episode.clean
    assert episode.acked_checked == acked
    assert episode.acked_intact == acked
    assert episode.txns_replayed == acked
    assert svc.clock_ns > clock_before                  # outage costs time
    snap = svc.metrics.snapshot()["counters"]
    assert snap["power_cuts"] == 1
    assert snap["wal_txns_replayed"] == acked
    for key in auditor.acknowledged_keys:               # service still serves
        assert svc.store.get(key)


def test_service_power_cut_requeues_unacked_requests():
    svc, auditor = _loaded_service()
    extra = put_wave(1, 2, payload_bytes=300, seed=9)
    svc.submit_many(extra)                              # submitted, not drained
    episode = ServiceRecovery(svc, auditor=auditor).power_cut()
    assert episode.requests_requeued == len(extra)
    results = svc.drain()                               # the retries land
    assert all(r.ok for r in results)
    assert all(r.request.arrival_ns >= episode.at_ns for r in results)


def test_service_power_cut_with_tearing_policy_stays_clean():
    svc, auditor = _loaded_service()
    episode = ServiceRecovery(svc, auditor=auditor).power_cut(
        seeded_line_policy(np.random.default_rng(11)))
    assert episode.clean


# -- chaos integration -------------------------------------------------------


def test_power_cut_action_validation():
    ChaosAction(at_ns=1e6, kind="power_cut", policy="tear")
    with pytest.raises(ValueError, match="drop|keep|tear"):
        ChaosAction(at_ns=1e6, kind="power_cut", policy="zap")
    line = ChaosAction(at_ns=1e6, kind="power_cut", policy="keep").describe()
    assert "policy=keep" in line


def test_power_cycle_campaign_is_clean_and_deterministic():
    r1 = CampaignEngine(CANNED_CAMPAIGNS["power_cycle"](seed=0)).run()
    assert r1.durability_clean
    assert r1.faults.get("power_cut") == 2
    assert r1.counters.get("power_cuts") == 2
    assert r1.counters.get("wal_txns_replayed", 0) > 0
    r2 = CampaignEngine(CANNED_CAMPAIGNS["power_cycle"](seed=0)).run()
    assert r1.render() == r2.render()


# -- per-site fault seeding (satellite) --------------------------------------


def _two_stores():
    out = []
    for _ in range(2):
        store = _store()
        for i in range(4):
            store.put(f"o{i}", bytes([40 + i]) * 500)
        out.append(store)
    return out


def test_fault_targets_independent_of_call_order():
    """A bit_flip's target must not depend on how many other fault
    kinds ran first — per-site RNG streams, not one shared cursor."""
    s1, s2 = _two_stores()
    inj1, inj2 = FaultInjector(s1, seed=7), FaultInjector(s2, seed=7)
    inj2.scribble()                     # extra draw on another site
    inj2.block_loss()
    ev1, ev2 = inj1.bit_flip(), inj2.bit_flip()
    assert (ev1.stripe, ev1.block) == (ev2.stripe, ev2.block)


def test_fault_streams_still_differ_across_seeds():
    s1, s2 = _two_stores()
    inj1, inj2 = FaultInjector(s1, seed=1), FaultInjector(s2, seed=2)
    seq1 = [(e.stripe, e.block) for e in (inj1.bit_flip() for _ in range(6))]
    seq2 = [(e.stripe, e.block) for e in (inj2.bit_flip() for _ in range(6))]
    assert seq1 != seq2


# -- full-enumeration soak (slow) --------------------------------------------


@pytest.mark.slow
def test_soak_full_enumeration_all_scenarios():
    """Exhaustive crash-point enumeration plus tear rounds over every
    shipped scenario — the long-haul proof behind the smoke gate."""
    for scenario in (smoke_scenario(0), degraded_scenario(0),
                     soak_scenario(0)):
        report = CrashInjector(scenario).campaign(tear_rounds=60, seed=0)
        assert report.all_passed, "\n".join(report.failures[:10])
        assert report.points_run == report.boundaries_total + 60
