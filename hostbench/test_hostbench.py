"""Tests of the benchmark itself.

    python3 -m pytest hostbench -q

Each repetition runs as a subprocess, exactly as ``run.py`` starts it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def repetition(name: str, seed: int, traced: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "rep.py"), name, str(seed),
         "1" if traced else "0"],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced() -> dict:
    """Two traced repetitions of every workload, same seed."""
    return {name: [repetition(name, 1, True) for _ in range(2)]
            for name in workloads.WORKLOADS}


def test_benchmark_json_mirrors_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert doc["command"] == ["python3", "hostbench/run.py"]
    assert doc["paths"] == ["hostbench"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} \
        == workloads.WORKLOADS
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [(name, unit, better) for name, unit, better, _ in layers.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_traced_counts_repeat_exactly(traced):
    for name, (a, b) in traced.items():
        assert a["failed"] == b["failed"] == 0, name
        for metric in layers.COUNTS:
            assert a["layers"][metric] == b["layers"][metric], (name, metric)


def test_every_per_layer_metric_is_reported(traced):
    names = {name for name, *_ in layers.PER_LAYER}
    names.discard("bench.trace_overhead_s")
    for reps in traced.values():
        assert set(reps[0]["layers"]) == names


def test_each_layer_is_exercised_as_designed(traced):
    lay = {name: reps[0]["layers"] for name, reps in traced.items()}
    sweep, scale, service = lay["sweep_1t"], lay["scale_mt"], \
        lay["service_mix"]
    assert sweep["simulator.multi_calls"] == 0
    assert service["simulator.multi_calls"] == 0
    assert scale["simulator.multi_calls"] > 0
    assert service["core.probe_calls"] == 0
    for metrics in (sweep, scale):
        assert all(value == 0 for metric, value in metrics.items()
                   if metric.startswith(("codes.", "pmstore.")))
    assert sweep["trace.xor_s"] > 0
    assert scale["trace.xor_s"] == service["trace.xor_s"] == 0
    assert scale["core.probe_dup_frac"] > sweep["core.probe_dup_frac"] + 0.25
    assert sweep["simulator.ff_engaged_frac"] > 0
    assert service["pmstore.wal_txns"] > 0
    assert service["service.degraded_reads"] > 0


def test_sweep_digests_do_not_depend_on_the_seed():
    out = repetition("scale_mt", 7, False)
    assert out["pinned"] and out["failed"] == 0


def test_a_changed_output_is_a_failed_operation():
    with open(os.path.join(HERE, "digests.json")) as f:
        label = next(iter(json.load(f)["scale_mt"]))
    assert label in rep.check("scale_mt", 0, {label: "0" * 64})[0]
    assert rep.check("service_mix", 0, {"service": "0" * 64}) \
        == (["service"], True)


def test_uninstall_restores_every_wrapped_attribute():
    sys.path.insert(1, os.path.join(ROOT, "src"))
    rec = layers.install(layers.Recorder())
    originals = list(rec._undo)
    assert originals
    rec.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "service_mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
