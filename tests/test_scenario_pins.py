"""Seeded service-stack scenarios pinned to their deterministic digests.

Each digest is ``fingerprint(fig.deterministic())`` of one scenario at
seed 0. The scenarios drive the service, overload, chaos and crash
layers end to end, so a refactor of those layers that shifts any row,
check or note fails here. The ``audit`` scenario is pinned in
``tests/test_obs_audit.py`` next to the test that already runs it.
"""

import pytest

from repro.bench.chaos_scenario import chaos_scenario
from repro.bench.crash_scenario import crash_scenario
from repro.bench.overload_scenario import overload_scenario
from repro.bench.service_scenario import service_scenario
from repro.parallel import fingerprint

PINS = {
    "service": (lambda: service_scenario(),
                "cdf1d3f6e4440f41705ef6633f9becf76aac8393bcf7e13e27888969d6279249"),
    "overload": (lambda: overload_scenario(seed=0),
                 "9779c1223ba7305a17910553f9e071095aa9c2f45c0c0643e0f1650dd2a27084"),
    "chaos": (lambda: chaos_scenario(seed=0),
              "3158f769294bd32b0bd5d4d33bce6c0b6daf473a71ed7d7f3b4bb589d9cd5bab"),
    "crash": (lambda: crash_scenario(seed=0),
              "38d3249bb8cfa55ea789ec15da2247546189379d437dcfb7b3b70b389f6776ea"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_scenario_output_is_pinned(name):
    run, digest = PINS[name]
    fig = run()
    assert fig.all_passed, fig.render()
    assert fingerprint(fig.deterministic()) == digest, fig.render()
