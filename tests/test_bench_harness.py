"""Tests for the benchmark harness: report, runner, CLI."""

import pytest

from repro import Workload
from repro.bench import FigureResult, fmt_value, run_libraries, scaled, standard_libraries
from repro.bench.cli import main as cli_main
from repro.bench.runner import best_other
from repro.libs import ISAL


# -- report -----------------------------------------------------------------

def _fig():
    fig = FigureResult("figX", "demo", ["a", "b"])
    fig.add_row("p1", a=1.0, b=2.0)
    fig.add_row("p2", a=3.0)
    fig.check("always true", True, "ok")
    fig.check("always false", False)
    return fig


def test_fmt_value():
    assert fmt_value(None) == "n/a"
    assert fmt_value(1.2345) == "1.23"
    assert fmt_value(7) == "7"


def test_figure_value_and_series():
    fig = _fig()
    assert fig.value("p1", "a") == 1.0
    assert fig.value("p2", "b") is None
    assert fig.series("a") == [1.0, 3.0]
    with pytest.raises(KeyError):
        fig.value("p3", "a")


def test_figure_pass_fraction():
    fig = _fig()
    assert fig.pass_fraction == 0.5
    assert not fig.all_passed


def test_figure_render_contains_everything():
    out = _fig().render()
    assert "figX" in out and "p1" in out and "n/a" in out
    assert "[PASS] always true [ok]" in out
    assert "[FAIL] always false" in out


def test_table_alignment_stable():
    lines = _fig().table_str().splitlines()
    widths = {len(l) for l in lines}
    assert len(widths) == 1  # all rows padded to same width


def test_empty_checks_pass_fraction():
    fig = FigureResult("f", "t", ["a"])
    assert fig.pass_fraction == 1.0 and fig.all_passed


# -- runner ------------------------------------------------------------------

def test_scaled_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
    assert scaled(100 * 1024) == 51200
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.0001")
    assert scaled(100 * 1024) == 8 * 1024  # floor
    monkeypatch.delenv("REPRO_BENCH_SCALE")
    assert scaled(100 * 1024) == 100 * 1024


def test_standard_libraries_names():
    libs = standard_libraries(6, 3)
    assert [l.name for l in libs] == ["ISA-L", "ISA-L-D", "Zerasure",
                                      "Cerasure", "DIALGA"]
    with pytest.raises(ValueError):
        standard_libraries(6, 3, include=("NotALib",))


def test_run_libraries_handles_unsupported():
    libs = standard_libraries(48, 4, include=("ISA-L", "Zerasure"))
    wl = Workload(k=48, m=4, block_bytes=1024, data_bytes_per_thread=48 * 1024)
    res = run_libraries(wl, libs)
    assert res["Zerasure"] is None       # wide stripe: no convergence
    assert res["ISA-L"] is not None


def test_best_other_excludes_dialga():
    libs = standard_libraries(6, 3, include=("ISA-L", "DIALGA"),
                              dialga_kwargs={"use_probe": False})
    wl = Workload(k=6, m=3, block_bytes=1024, data_bytes_per_thread=24 * 1024)
    res = run_libraries(wl, libs)
    assert best_other(res) == res["ISA-L"].throughput_gbps


# -- CLI ----------------------------------------------------------------------

def test_cli_list(capsys):
    assert cli_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig10" in out and "ablation_shuffle" in out


def test_cli_unknown_experiment(capsys):
    assert cli_main(["fig99"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_cli_json_requires_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli_main(["fig03", "--json"])
    assert exc.value.code == 2
    assert "--json requires --out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_runs_one_experiment(capsys, tmp_path):
    rc = cli_main(["fig03", "--out", str(tmp_path), "--volume", "32768"])
    assert rc == 0
    assert (tmp_path / "fig03.txt").exists()
    assert "fig03" in capsys.readouterr().out


def test_cli_writes_only_its_targets(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["fig03", "--out", "out", "--volume", "32768"]) == 0
    written = sorted(p.relative_to(tmp_path).as_posix()
                     for p in tmp_path.rglob("*"))
    assert written == ["out", "out/fig03.txt"]
