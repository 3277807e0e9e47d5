"""Smoke tests: the fast examples must run clean end to end.

The slower scenario scripts (wide-stripe archive, KV store, adaptive
demo) are exercised piecemeal by the integration tests; these two run
whole as subprocesses so the documented entry points can never rot.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _run(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart_example():
    out = _run("quickstart.py")
    assert "repair OK" in out
    assert "DIALGA policy" in out


def test_service_traffic_demo_example():
    out = _run("service_traffic_demo.py")
    assert "Eq. (1) admission cap: 24 concurrent" in out
    assert "0 failed: True" in out
    # The closing snapshot renders in Prometheus exposition format.
    assert "# TYPE repro_service_completed_total counter" in out
    assert 'repro_service_latency_ns{op="put",quantile="0.5"}' in out


def test_trace_explorer_demo_example():
    out = _run("trace_explorer_demo.py")
    assert "span tree (truncated):" in out
    assert "coordinator decision log:" in out
    assert "switch:" in out          # a live policy switch was traced
    assert "service request stages" in out


def test_chaos_campaign_demo_example():
    out = _run("chaos_campaign_demo.py")
    assert "durability CLEAN" in out
    assert "kitchen_sink" in out
    assert "no acknowledged byte was lost" in out


def test_decision_audit_demo_example():
    out = _run("decision_audit_demo.py")
    assert "SWITCH" in out
    assert "oracle-normalized score" in out
    assert "done: decisions audited, regret scored" in out


def test_fault_tolerance_drill_example():
    out = _run("fault_tolerance_drill.py")
    assert "24/24 objects bit-exact" in out
    assert "unrepairable stripes none" in out


@pytest.mark.parametrize("name", [
    "pm_kv_store_protection.py",
    "wide_stripe_archive.py",
    "adaptive_tuning_demo.py",
    "production_workloads_tour.py",
])
def test_other_examples_compile(name):
    """The slower examples at least parse and import cleanly."""
    src = (EXAMPLES / name).read_text()
    compile(src, name, "exec")
