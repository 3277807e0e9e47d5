"""The 1.1 API redesign: DialgaConfig, the uniform run() signature,
RS(n, k) constructors and the façade exports."""

import warnings

import pytest

from repro.core import (
    AdaptiveCoordinator,
    DialgaConfig,
    DialgaEncoder,
    Policy,
)
from repro.libs import (
    ISAL,
    Cerasure,
    GeometryMismatch,
    UnsupportedWorkload,
    Zerasure,
)
from repro.obs import Tracer, use_tracer
from repro.simulator import HardwareConfig
from repro.simulator.counters import Counters
from repro.trace import Workload

WL = Workload.rs(9, 6, block_bytes=512, data_bytes_per_thread=16 * 1024)
HW = HardwareConfig()


# ---------------------------------------------------------- DialgaConfig

def test_dialga_config_defaults_match_old_constructor_defaults():
    cfg = DialgaConfig()
    assert cfg.use_probe
    assert cfg.chunks == 6


def test_dialga_config_is_frozen_and_keyword_only():
    cfg = DialgaConfig()
    with pytest.raises(AttributeError):
        cfg.chunks = 3
    with pytest.raises(TypeError):
        DialgaConfig(None, True)  # positional use must fail


def test_encoder_takes_config_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        enc = DialgaEncoder(6, 3, config=DialgaConfig(use_probe=False,
                                                      chunks=2))
    assert not enc.use_probe and enc.chunks == 2


# ------------------------------------------------- constructor errors

@pytest.mark.parametrize("args, kwargs", [
    ((), {"turbo": True}),
    ((), {"use_probe": False}),  # pre-1.1 loose keyword
    ((None, False), {}),         # pre-1.1 positional knobs
], ids=["unknown", "pre11-keyword", "pre11-positional"])
def test_unknown_constructor_keyword_is_an_error(args, kwargs):
    with pytest.raises(TypeError, match="unexpected keyword|positional arg"):
        DialgaEncoder(6, 3, *args, **kwargs)


def test_mixing_config_and_legacy_keywords_is_an_error():
    with pytest.raises(TypeError, match="unexpected keyword"):
        DialgaEncoder(6, 3, use_probe=False, config=DialgaConfig())


def test_duplicate_positional_and_keyword_is_an_error():
    with pytest.raises(TypeError, match="unexpected keyword"):
        DialgaEncoder(6, 3, None, False, adaptive=True)


def test_compat_properties_mirror_config():
    enc = DialgaEncoder(6, 3, config=DialgaConfig(chunks=0, use_probe=False))
    assert enc.chunks == 1  # clamped, as the old attribute was used
    assert enc.use_probe is False


# ------------------------------------------------------ uniform run()

@pytest.fixture(scope="module")
def enc():
    return DialgaEncoder(6, 3, config=DialgaConfig(use_probe=False,
                                                   chunks=2))


def test_run_positional_and_keyword_agree(enc):
    a = enc.run(WL, HW)
    b = enc.run(workload=WL, hardware=HW)
    assert a.throughput_gbps == b.throughput_gbps


def test_run_double_workload_is_an_error(enc):
    with pytest.raises(TypeError, match="unexpected keyword"):
        enc.run(WL, wl=WL)


def test_run_missing_workload_is_an_error(enc):
    with pytest.raises(TypeError, match="workload"):
        enc.run(hardware=HW)


@pytest.mark.parametrize("kwargs", [
    {"workloud": WL},
    {"wl": WL, "hw": HW},  # pre-1.1 spelling
], ids=["typo", "pre11-wl-hw"])
def test_run_unknown_keyword_is_an_error(enc, kwargs):
    with pytest.raises(TypeError, match="unexpected keyword"):
        enc.run(**kwargs)


def test_run_signature_uniform_across_libraries():
    wl = WL.with_(data_bytes_per_thread=8 * 1024)
    for lib in (ISAL(6, 3), Zerasure(6, 3), Cerasure(6, 3),
                DialgaEncoder(6, 3, config=DialgaConfig(use_probe=False,
                                                        chunks=2))):
        res = lib.run(wl, HW)
        assert res.throughput_gbps > 0, lib.name


# ------------------------------------------------------ policy pinning

def test_dialga_run_policy_pins_this_run_only(enc):
    pol = Policy(hw_prefetch=False, sw_distance=3)
    enc.run(WL, HW, policy=pol)
    assert enc.policy_log == [pol]
    enc.run(WL, HW)  # not persisted: the next run adapts again
    assert enc.last_coordinator is not None
    assert len(enc.policy_log) >= enc.chunks


def test_isal_honors_pinned_policy():
    lib = ISAL(6, 3)
    assert lib.supports_policy
    pinned = lib.run(WL, HW, policy=Policy(hw_prefetch=False,
                                           sw_distance=6))
    plain = lib.run(WL, HW)
    assert pinned.throughput_gbps != plain.throughput_gbps


def test_fixed_kernel_libraries_reject_pinned_policy():
    for lib in (Zerasure(6, 3), Cerasure(6, 3)):
        assert not lib.supports_policy
        with pytest.raises(UnsupportedWorkload, match="fixed kernels"):
            lib.run(WL, HW, policy=Policy(hw_prefetch=False))


# ------------------------------------------------- Workload constructors

def test_workload_rs_uses_paper_notation():
    wl = Workload.rs(12, 8, block_bytes=2048)
    assert (wl.k, wl.m, wl.block_bytes) == (8, 4, 2048)


def test_workload_rs_validates_geometry():
    with pytest.raises(ValueError, match="0 < k < n"):
        Workload.rs(8, 8)
    with pytest.raises(ValueError, match="0 < k < n"):
        Workload.rs(8, 0)


def test_workload_paper_uses_paper_units():
    wl = Workload.paper(28, 24, block_kb=4, threads=12, volume_mb=2)
    assert (wl.k, wl.m) == (24, 4)
    assert wl.block_bytes == 4096
    assert wl.nthreads == 12
    assert wl.data_bytes_per_thread == 2 * 1024 * 1024


# ------------------------------------------------------ GeometryMismatch

def test_geometry_mismatch_raised_and_is_a_value_error(enc):
    wrong = Workload.rs(12, 8, block_bytes=512,
                        data_bytes_per_thread=8 * 1024)
    with pytest.raises(GeometryMismatch, match="geometry"):
        enc.run(wrong, HW)
    with pytest.raises(ValueError):  # pre-1.1 handlers keep working
        enc.run(wrong, HW)


# --------------------------------------------------- policy-switch events

def test_coordinator_emits_policy_switch_events():
    wl = Workload.rs(12, 8, block_bytes=1024, nthreads=2,
                     data_bytes_per_thread=16 * 1024)
    coord = AdaptiveCoordinator(wl, HW)
    assert coord.policy.hw_prefetch  # low-pressure start
    coord.set_baseline(Counters(loads=1000, load_stall_ns=50_000.0,
                                hwpf_useless=10))
    # Contention + inefficiency together force the high-pressure flip.
    tracer = Tracer("test")
    with use_tracer(tracer):
        coord.observe(Counters(loads=1000, load_stall_ns=500_000.0,
                               hwpf_useless=500))
    assert coord.switches == 1
    ev = coord.decision_log[-1]
    assert ev.switched and ev.sample == 1
    assert ev.old.hw_prefetch and not ev.chosen.hw_prefetch
    [event] = [e for e in tracer.events
               if e.name == "coordinator.policy_switch"]
    assert event.attrs["sample"] == 1
    assert event.attrs["old"] == ev.old.describe()
    assert event.attrs["new"] == ev.chosen.describe()


# ------------------------------------------------------------- façade

def test_facade_exports_the_new_surface():
    import repro

    for name in ("DialgaConfig", "GeometryMismatch",
                 "TransientFault",
                 "ErasureCodingService", "ServiceConfig", "Request",
                 "RequestResult", "RetryPolicy", "MetricsRegistry"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None
