"""The one rerun check: ``FigureResult.deterministic()`` and
``scripts/check_rerun.py``, on synthetic results and on two real bench
interpreters."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

from repro.bench.report import FigureResult

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_rerun", ROOT / "scripts" / "check_rerun.py")
check_rerun = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_rerun)


def bench_pair(tmp_path, *argv) -> list[str]:
    """Run ``python -m repro.bench *argv --out DIR --json`` in two fresh
    interpreters with different string hash seeds; returns the
    ``check_rerun`` problems between the two output directories."""
    dirs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"run_{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "repro.bench", *argv,
             "--out", str(out), "--json"],
            capture_output=True, text=True, timeout=600, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        dirs.append(out)
    return check_rerun.compare(check_rerun.load(dirs[0]),
                               check_rerun.load(dirs[1]))


def _result(**overrides) -> dict:
    fig = FigureResult("figX", "demo", ["gbps", "wall_s"],
                       host_columns=["wall_s"])
    fig.add_row("p1", gbps=1.5, wall_s=0.25)
    fig.add_row("p2", gbps=2.5, wall_s=0.5)
    fig.check("faster", True, "2.50 > 1.50")
    fig.notes.append("report:\nline one\nline two")
    data = fig.to_dict()
    for path, value in overrides.items():
        *keys, last = path.split(".")
        node = data
        for key in keys:
            node = node[int(key)] if key.isdigit() else node[key]
        node[int(last) if last.isdigit() else last] = value
    return data


def _compare(b: dict) -> list[str]:
    return check_rerun.compare({"figX": _result()}, {"figX": b})


# -- the projection -----------------------------------------------------------


def test_deterministic_drops_only_host_cells():
    fig = FigureResult.from_dict(_result())
    assert fig.host_columns == ["wall_s"]
    proj = fig.deterministic()
    assert [r["gbps"] for r in proj["rows"]] == [1.5, 2.5]
    assert all("wall_s" not in r for r in proj["rows"])
    assert proj["checks"] == fig.to_dict()["checks"]
    assert proj["notes"] == fig.notes


def test_to_dict_omits_empty_host_columns():
    fig = FigureResult("f", "t", ["a"])
    fig.add_row("p", a=1)
    assert "host_columns" not in fig.to_dict()
    assert fig.deterministic() == fig.to_dict()
    assert FigureResult.from_dict(fig.to_dict()) == fig


# -- the comparison -----------------------------------------------------------


def test_identical_runs_have_no_problems():
    assert _compare(_result()) == []


def test_host_column_change_is_not_reported():
    assert _compare(_result(**{"rows.0.wall_s": 9.75})) == []


def test_changed_cell_is_reported():
    (problem,) = _compare(_result(**{"rows.1.gbps": 2.75}))
    assert problem.startswith("figX: rows[1]: 'p2' gbps: 2.5 != 2.75")


def test_changed_verdict_is_reported():
    (problem,) = _compare(_result(**{"checks.0.passed": False}))
    assert "checks[0]" in problem and "passed" in problem


def test_changed_check_detail_is_reported():
    (problem,) = _compare(_result(**{"checks.0.detail": "2.50 > 1.25"}))
    assert "checks[0]" in problem and "'2.50 > 1.25'" in problem


def test_changed_note_reports_first_differing_line():
    (problem,) = _compare(_result(
        **{"notes.0": "report:\nline one\nline 2"}))
    assert problem == "figX: notes[0]: 'line two' != 'line 2'"


def test_extra_note_is_reported():
    b = _result()
    b["notes"].append("one more")
    assert _compare(b) == ["figX: notes[1]: '<missing>' != 'one more'"]


def test_missing_cell_differs_from_none():
    a = _result(**{"rows.0.gbps": None})
    b = _result()
    del b["rows"][0]["gbps"]
    assert check_rerun.compare({"figX": a}, {"figX": b}) == [
        "figX: rows[0]: 'p1' gbps: None != '<missing>'"]


def test_missing_id_is_reported():
    a = {"figX": _result(), "figY": _result(fig_id="figY")}
    assert check_rerun.compare(a, {"figX": _result()}) == ["figY: only in A"]


def test_main_exit_codes(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert check_rerun.main([str(a), str(b)]) == 1  # nothing to compare
    fig = FigureResult.from_dict(_result())
    (a / "figX.json").write_text(json.dumps(fig.to_dict()))
    (b / "figX.json").write_text(json.dumps(fig.to_dict()))
    assert check_rerun.main([str(a), str(b)]) == 0
    fig.rows[0][1]["gbps"] = 0.5
    (b / "figX.json").write_text(json.dumps(fig.to_dict()))
    assert check_rerun.main([str(a), str(b)]) == 1
    assert "DIFFERS: figX: rows[0]" in capsys.readouterr().err


# -- two real interpreters ----------------------------------------------------


def test_scenarios_rerun_byte_identical_in_fresh_interpreters(tmp_path):
    assert bench_pair(tmp_path, "chaos", "crash", "overload", "fastforward",
                      "--volume", "65536", "--seed", "1") == []
