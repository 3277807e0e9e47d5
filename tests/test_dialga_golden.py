"""Golden pins for DIALGA's adaptive path: probe, calibration, chunked
re-entry and the coordinator's decisions, end to end.

RS(12,8) with 1 KiB blocks and 48 stripes per thread, the probe on, at
4, 8 and 16 threads. The values were captured before the DIALGA ->
coordinator -> simulator path was folded into one ``simulate`` and one
decision record; any refactor of that path must reproduce them exactly,
with the simulation memo off and with it warm.
The 8-thread run switches policy once (after its last chunk); the
16-thread run starts on the high-pressure policy.
"""

import hashlib

import pytest

from repro import DialgaEncoder, HardwareConfig, Workload
from repro.obs import ledger_from_coordinator
from repro.parallel import SimCache, fingerprint, sim_cache

LOW = "hw=on sw_d=24"
HIGH = "hw=off(shuffle) sw_d=8 xpline"

GOLDEN = {
    # nthreads: (SimResult fingerprint, policy_log, switches,
    #            sha256 of the decision ledger's JSONL)
    4: ("c4609bba869d821f4105f0d781a177eb4782829ca51fdd02c77ed3fad57321b0",
        [LOW] * 6, 0,
        "ef4192a1b97297f549c1e1be5b2e03a74c55bf548839dc925052d8f2c057dbde"),
    8: ("8ebc94a59f1eb86c9f1e0e08e69d1cb518169d5281fbfb74f4ffed7f67b4a360",
        [LOW] * 6, 1,
        "198e850018af97e25ec137bdad1649fb9e61672e3b34b54143f9f05e517873bf"),
    16: ("4494a7980f8a98f57a5a300fb7e10316ea4a650920f0f553fadf42eccf9b0ed7",
         [HIGH] * 6, 0,
         "722db5961ca813449dc6b21f406118d67b4bbaf0ac5acb0b6f9e3f509eba94fa"),
}


def _workload(nthreads):
    wl = Workload(k=8, m=4, block_bytes=1024, nthreads=nthreads)
    return wl.with_(data_bytes_per_thread=48 * wl.stripe_data_bytes)


def _check(nthreads):
    """One adaptive run, compared with its golden values."""
    sim_fp, policies, switches, ledger_sha = GOLDEN[nthreads]
    enc = DialgaEncoder(8, 4)
    res = enc.run(_workload(nthreads), HardwareConfig())
    ledger = ledger_from_coordinator(enc.last_coordinator)
    assert fingerprint(res.sim) == sim_fp
    assert [p.describe() for p in enc.policy_log] == policies
    assert enc.policy_switches == switches
    assert hashlib.sha256(ledger.to_jsonl().encode()).hexdigest() == ledger_sha


@pytest.mark.parametrize("nthreads", sorted(GOLDEN))
def test_adaptive_run_matches_golden(nthreads):
    with sim_cache(None):
        _check(nthreads)


@pytest.mark.parametrize("nthreads", sorted(GOLDEN))
def test_warm_memo_run_matches_golden(nthreads):
    """Every probe and calibration run served from a memo that an
    identical run filled: the same result, policies and decisions."""
    with sim_cache(SimCache()) as memo:
        DialgaEncoder(8, 4).run(_workload(nthreads), HardwareConfig())
        misses = memo.misses
        _check(nthreads)
    assert memo.hits > 0 and memo.misses == misses
