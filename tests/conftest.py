"""Test-suite configuration.

Registers a deterministic hypothesis profile: simulation-backed
properties have runtimes that vary with the drawn workload, so the
default 200 ms deadline would flake; example counts stay moderate to
keep the suite fast.
"""

import pytest
from hypothesis import HealthCheck, settings

# The oracle's equality helper lives outside a test module; rewrite its
# asserts so a mismatch reports both values.
pytest.register_assert_rewrite("tests.reference_interpreter")


settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")
