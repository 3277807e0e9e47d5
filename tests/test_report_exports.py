"""Tests for FigureResult JSON/CSV exports, the CLI --json path and
the tracked ``benchmarks/results/`` they persist."""

import importlib.util
import json
import pathlib
import runpy

import pytest

from repro.bench.ablations import ALL_ABLATIONS
from repro.bench.cli import main as cli_main
from repro.bench.figures import ALL_FIGURES
from repro.bench.report import FigureResult
from repro.parallel import SimCache, sim_cache

ROOT = pathlib.Path(__file__).parent.parent
RESULTS = ROOT / "benchmarks" / "results"
_spec = importlib.util.spec_from_file_location(
    "check_rerun", ROOT / "scripts" / "check_rerun.py")
check_rerun = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_rerun)


def _fig():
    fig = FigureResult("figZ", "export demo", ["x", "y"])
    fig.add_row("a", x=1.5, y=None)
    fig.add_row("b", x=2.5, y=3.0)
    fig.check("c1", True, "d1")
    fig.notes.append("n1")
    return fig


def test_to_dict_roundtrips_through_json():
    d = json.loads(json.dumps(_fig().to_dict()))
    assert d["fig_id"] == "figZ"
    assert d["rows"][0] == {"point": "a", "x": 1.5, "y": None}
    assert d["checks"][0]["passed"] is True
    assert d["notes"] == ["n1"]


def test_from_dict_inverts_to_dict():
    fig = _fig()
    back = FigureResult.from_dict(json.loads(json.dumps(fig.to_dict())))
    assert back == fig
    assert back.render() == fig.render()


def test_cli_json_output(tmp_path):
    rc = cli_main(["ablation_shuffle", "--out", str(tmp_path),
                   "--json", "--volume", "32768"])
    assert rc == 0
    data = json.loads((tmp_path / "ablation_shuffle.json").read_text())
    assert data["fig_id"] == "ablation_shuffle"
    assert all(c["passed"] for c in data["checks"])


def test_cli_plot_flag(capsys):
    rc = cli_main(["fig03", "--volume", "16384", "--plot"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "o=throughput_gbps" in out


# ------------------------------------------- tracked benchmarks/results/

def test_tracked_results_cover_every_figure_and_ablation():
    ids = {p.stem for p in RESULTS.glob("*.json")}
    assert ids == set(ALL_FIGURES) | set(ALL_ABLATIONS)


def test_tracked_json_rerenders_to_tracked_txt():
    for path in sorted(RESULTS.glob("*.json")):
        result = FigureResult.from_dict(json.loads(path.read_text()))
        assert result.render() + "\n" == path.with_suffix(".txt").read_text(), \
            path.name


def test_experiments_md_renders_from_tracked_json():
    script = runpy.run_path(str(ROOT / "scripts" / "make_experiments_md.py"))
    assert script["render"]() == (ROOT / "EXPERIMENTS.md").read_text()


@pytest.mark.parametrize("fig_id", ["fig07", "ablation_read_buffer"])
def test_multithread_figures_resimulate_to_tracked_json(fig_id):
    """Fig. 7 and the read-buffer ablation, re-simulated at full volume
    through the multicore interpreter, equal the tracked JSON minus its
    host columns. A fresh memo keeps earlier tests' runs from serving
    them."""
    with sim_cache(SimCache()):
        result = {**ALL_FIGURES, **ALL_ABLATIONS}[fig_id]()
    tracked = json.loads((RESULTS / f"{fig_id}.json").read_text())
    assert check_rerun.compare({fig_id: result.to_dict()},
                               {fig_id: tracked}) == []
