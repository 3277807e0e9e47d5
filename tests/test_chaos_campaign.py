"""The chaos campaign engine: schemas, audit, runs, determinism."""

import pytest

from repro.chaos import (
    CANNED_CAMPAIGNS,
    Campaign,
    CampaignEngine,
    ChaosAction,
    DurabilityAuditor,
    kitchen_sink,
    single_device_loss,
)
from repro.pmstore import FaultInjector, PMStore
from repro.service import Request
from repro.service.request import RequestResult, RequestStatus

# -- schemas ----------------------------------------------------------------


def test_action_validation():
    with pytest.raises(ValueError, match="unknown action kind"):
        ChaosAction(at_ns=0.0, kind="meteor_strike")
    with pytest.raises(ValueError, match="before t=0"):
        ChaosAction(at_ns=-1.0, kind="bit_flip")
    with pytest.raises(ValueError, match="duration_ns"):
        ChaosAction(at_ns=0.0, kind="transient_storm", duration_ns=0.0)
    with pytest.raises(ValueError, match="burst op"):
        ChaosAction(at_ns=0.0, kind="traffic_burst", op="delete")


def test_action_describe_is_deterministic():
    a = ChaosAction(at_ns=2.5e7, kind="device_loss", device=3, note="boom")
    assert a.describe() == a.describe()
    assert "device=3" in a.describe() and "(boom)" in a.describe()


def test_campaign_validation():
    with pytest.raises(ValueError, match="duration_ns"):
        Campaign(name="x", duration_ns=0.0)
    with pytest.raises(ValueError, match="past the campaign"):
        Campaign(name="x", duration_ns=1e6,
                 actions=(ChaosAction(at_ns=2e6, kind="bit_flip"),))


def test_campaign_schedule_sorted_and_with_seed():
    c = Campaign(name="x", actions=(
        ChaosAction(at_ns=5e6, kind="bit_flip"),
        ChaosAction(at_ns=1e6, kind="scribble"),
    ))
    assert [a.at_ns for a in c.schedule()] == [1e6, 5e6]


def test_canned_campaign_library():
    assert set(CANNED_CAMPAIGNS) == {
        "single_device_loss", "corruption_wave", "retry_storm",
        "kitchen_sink", "power_cycle"}
    for name, build in CANNED_CAMPAIGNS.items():
        campaign = build(seed=3)
        assert campaign.name == name
        assert campaign.seed == 3
        assert campaign.actions


# -- durability auditor ------------------------------------------------------


def _ok(req, value=b""):
    return RequestResult(req, RequestStatus.COMPLETED, value=value)


def test_auditor_records_acks_and_flags_served_corruption():
    aud = DurabilityAuditor()
    put = Request.put("a", b"payload")
    aud.observe([_ok(put)])
    aud.observe([RequestResult(Request.put("b", b"x"),
                               RequestStatus.FAILED)])   # never acked
    assert aud.acknowledged_keys == ["a"]
    aud.observe([_ok(Request.get("a"), value=b"payload")])
    aud.observe([_ok(Request.get("a"), value=b"WRONG!!")])
    assert aud.read_checks == 2
    assert aud.read_mismatches == 1
    assert aud.mismatched_keys == ["a"]


def test_auditor_verify_classifies_intact_corrupted_lost():
    store = PMStore(4, 2, block_bytes=256)
    aud = DurabilityAuditor()
    for key in ("intact", "corrupt", "lost"):
        payload = (key.encode() * 200)[:1000]   # fills one stripe each
        store.put(key, payload)
        aud.observe([_ok(Request.put(key, payload))])
    # Silent corruption on `corrupt`'s stripe (a raw GET trusts it).
    meta = store.meta_of("corrupt")
    block = meta.offset // store.block_bytes
    FaultInjector(store, seed=1).bit_flip(stripe=meta.stripe,
                                          block=block, nbits=1)
    # `lost`: erase past the parity budget.
    lmeta = store.meta_of("lost")
    for block in range(store.m + 1):
        store.mark_lost(lmeta.stripe, block)
    report = aud.verify(store)
    assert report.acknowledged == 3
    assert report.intact == 1
    assert report.corrupted == ["corrupt"]
    assert report.lost == ["lost"]
    assert not report.clean
    assert "DIRTY" in report.summary()


def test_auditor_clean_report():
    store = PMStore(4, 2, block_bytes=256)
    aud = DurabilityAuditor()
    store.put("k", b"v" * 100)
    aud.observe([_ok(Request.put("k", b"v" * 100))])
    report = aud.verify(store)
    assert report.clean
    assert "CLEAN" in report.summary()


# -- engine runs -------------------------------------------------------------


def test_settle_grants_two_ms_windows_until_healed():
    # Healed after the third maintenance window: the settle instant is
    # the start (1 ms) plus three SETTLE_WINDOW_NS = 2 ms windows.
    from types import SimpleNamespace
    windows = []
    store = SimpleNamespace(
        stripes_with_losses=lambda: [0] if len(windows) < 3 else [])
    engine = CampaignEngine(single_device_loss(seed=0))
    engine.service = SimpleNamespace(store=store, clock_ns=1e6,
                                     run_maintenance=windows.append)
    engine.healer = SimpleNamespace(
        backlog=lambda: 0,
        monitor=SimpleNamespace(open_devices=lambda: []))
    assert engine._settle() == 7e6
    assert windows == [3e6, 5e6, 7e6]


def test_single_device_loss_campaign_self_heals():
    report = CampaignEngine(single_device_loss(seed=0)).run()
    assert report.durability_clean
    assert report.audit.acknowledged > 0
    assert report.faults.get("device_loss") == 1
    assert report.counters.get("health_trips", 0) >= 1
    assert report.counters.get("repair_blocks_rebuilt", 0) >= 1
    assert report.settled_at_ns is not None     # fully healed
    assert report.availability == 1.0
    assert report.mean_mttr_ns > 0


def test_corruption_wave_is_deterministic_and_clean():
    r1 = CampaignEngine(CANNED_CAMPAIGNS["corruption_wave"](seed=0)).run()
    r2 = CampaignEngine(CANNED_CAMPAIGNS["corruption_wave"](seed=0)).run()
    assert r1.render() == r2.render()
    assert r1.to_dict() == r2.to_dict()
    assert r1.durability_clean
    assert r1.faults.get("bit_flip") == 5
    assert r1.faults.get("scribble") == 3


def test_different_seed_changes_traffic_not_verdict():
    r0 = CampaignEngine(single_device_loss(seed=0)).run()
    r7 = CampaignEngine(single_device_loss(seed=7)).run()
    assert r0.render() != r7.render()
    assert r0.durability_clean and r7.durability_clean


def test_report_shape():
    report = CampaignEngine(single_device_loss(seed=1)).run()
    d = report.to_dict()
    for field in ("name", "seed", "faults", "counters", "health",
                  "audit", "availability"):
        assert field in d
    text = report.render()
    assert "single_device_loss" in text
    assert "device_loss" in text
    assert "CLEAN" in text


@pytest.mark.slow
def test_kitchen_sink_soak_across_seeds():
    """Long soak: the acceptance campaign stays durability-clean under
    several seeds (deselected from tier-1 by the `slow` marker)."""
    for seed in range(3):
        report = CampaignEngine(kitchen_sink(seed=seed)).run()
        assert report.durability_clean, f"seed {seed} lost data"
        assert report.faults.get("device_loss", 0) >= 1
        assert report.counters.get("faults_transient", 0) >= 1
        assert report.settled_at_ns is not None
