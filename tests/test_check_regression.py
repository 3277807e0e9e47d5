"""The host-time regression gate: its pure functions on synthetic records,
and the whole script on a throwaway git repo with a fake hostbench."""

import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_regression", ROOT / "scripts" / "check_regression.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
KEY = ("sweep_1t", 0, 1.0)


def _rec(rev, key=KEY, **metrics):
    """A record whose end-to-end metrics all read 10 unless given."""
    values = {**{m["name"]: 10.0 for m in SPEC}, **metrics}
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {name: {"value": value, "unit": "-"}
                          for name, value in values.items()}}
    return gate.make_record(result, rev, *key)


def _judge(base_values, new_value, metric="wall_s"):
    records = [_rec("old", **{metric: v}) for v in base_values]
    records += [_rec("new", **{metric: new_value})] * gate.PAIRS
    return gate.judge(records, "new", "old", KEY, SPEC)


def test_make_record_keys_the_result_line():
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}
    record = gate.make_record(result, "abc", "scale_mt", 2, 1.0)
    assert record == {"rev": "abc", "workload": "scale_mt", "seed": 2,
                      "seconds": 1.0, **result}


def test_regression_beyond_bound_and_noise_fails():
    # IQR/median 0.2 -> noise limit 0.6; 0.7 is beyond it and the 0.25 bound.
    code, report = _judge([8, 9, 10, 11, 12], 17.0)
    assert code == 1
    assert "regressed: wall_s" in report and "REGRESSION" in report


def test_regression_beyond_bound_only_passes():
    code, report = _judge([8, 9, 10, 11, 12], 14.0)
    assert code == 0 and "limit  60.0%" in report


def test_regression_beyond_noise_only_passes():
    code, _ = _judge([10.0] * 5, 12.0)  # IQR 0, but 0.2 <= bound 0.25
    assert code == 0


def test_exactly_at_bound_passes():
    assert _judge([10.0] * 5, 12.5)[0] == 0
    assert _judge([10.0] * 5, 12.5001)[0] == 1


def test_improvement_never_fails():
    assert _judge([10.0] * 5, 1.0)[0] == 0


def test_higher_is_better_metric_read_from_benchmark_json():
    better = {m["name"]: m["better"] for m in SPEC}
    assert better["sim_mb_per_s"] == "higher"
    code, report = _judge([4.0] * 5, 2.0, metric="sim_mb_per_s")
    assert code == 1 and "regressed: sim_mb_per_s" in report
    assert _judge([4.0] * 5, 8.0, metric="sim_mb_per_s")[0] == 0


@pytest.mark.parametrize("other", [
    _rec("new"),                          # the change's own revision
    _rec("old-dirty"),                    # a dirty tree
    _rec("old", key=("sweep_1t", 1, 1.0)),   # another seed
    _rec("old", key=("sweep_1t", 0, 2.0)),   # other seconds
    _rec("old", key=("scale_mt", 0, 1.0)),   # another workload
])
def test_records_that_are_never_a_baseline(other):
    baseline = [_rec("old") for _ in range(gate.PAIRS)]
    records = baseline + [other] * 5
    assert gate.select(records, "old", KEY) == baseline


def test_only_the_newest_runs_of_a_revision_count():
    # An earlier job's records of the parent do not mix with this job's.
    earlier, job = [_rec("old", wall_s=1.0)] * 7, [_rec("old", wall_s=2.0)] * 5
    assert gate.select(earlier + job, "old", KEY) == job


def test_short_or_missing_parent_is_unresolved():
    code, report = _judge([10.0] * 4, 100.0)
    assert code == 0
    assert "unresolved, parent has 4 record(s)" in report
    records = [_rec("new")] * 5
    code, report = gate.judge(records, "new", None, KEY, SPEC)
    assert code == 0 and "unresolved, parent has 0" in report


def _git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=repo, check=True, capture_output=True, text=True).stdout.strip()


def test_revisions_name_the_parent(tmp_path):
    _git(tmp_path, "init", "-q")
    for name in (gate.LEDGER, "code.py"):
        (tmp_path / name).write_text("")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "one")
    first = _git(tmp_path, "rev-parse", "HEAD")
    assert gate.revisions(tmp_path) == (first, None)
    (tmp_path / "code.py").write_text("x = 1\n")
    _git(tmp_path, "commit", "-qam", "two")
    second = _git(tmp_path, "rev-parse", "HEAD")
    assert gate.revisions(tmp_path) == (second, first)
    (tmp_path / gate.LEDGER).write_text("{}\n")
    assert gate.revisions(tmp_path) == (second, first)
    # A dirty tree is judged against HEAD, never against a dirty record.
    (tmp_path / "code.py").write_text("x = 2\n")
    assert gate.revisions(tmp_path) == (second + "-dirty", second)


FAKE_RUN = """\
import json, pathlib, sys
here = pathlib.Path(__file__).resolve().parent
value = (here / "value.txt").read_text().strip()
if value == "fail":
    sys.exit(3)
spec = json.loads((here.parent / "BENCHMARK.json").read_text())
print("fake hostbench")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {m["name"]: {"value": float(value), "unit": "-"}
                              for m in spec["end_to_end"]}}))
"""


def test_gate_times_the_change_against_its_parent(tmp_path):
    (tmp_path / "scripts").mkdir()
    (tmp_path / "hostbench").mkdir()
    shutil.copy(ROOT / "scripts" / "check_regression.py", tmp_path / "scripts")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "hostbench" / "run.py").write_text(FAKE_RUN)
    value = tmp_path / "hostbench" / "value.txt"
    argv = [sys.executable, "scripts/check_regression.py",
            "--workload", "sweep_1t", "--seed", "0", "--seconds", "1"]

    def gate_run():
        return subprocess.run(argv, cwd=tmp_path, capture_output=True,
                              text=True)

    _git(tmp_path, "init", "-q")
    value.write_text("10\n")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "one")
    proc = gate_run()  # a root commit has no parent to time
    assert proc.returncode == 0 and "unresolved, parent has 0" in proc.stdout

    (tmp_path / "notes.txt").write_text("unrelated\n")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "two")
    proc = gate_run()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 metric(s) regressed" in proc.stdout
    ledger = (tmp_path / gate.LEDGER).read_text().splitlines()
    assert len(ledger) == 1 + 2 * gate.PAIRS
    parent = _git(tmp_path, "rev-parse", "HEAD~1")
    # The parent's first record, from the run above, is not this job's.
    assert sum(json.loads(line)["rev"] == parent
               for line in ledger) == 1 + gate.PAIRS

    value.write_text("20\n")  # dirty: twice as slow as HEAD
    proc = gate_run()
    assert proc.returncode == 1
    assert "regressed: wall_s, setup_s, peak_rss_mb" in proc.stdout

    value.write_text("fail\n")
    proc = gate_run()
    assert proc.returncode == 3 and "exited 3" in proc.stdout
