"""The repo's scripts must stay importable/runnable (docs reference them)."""

import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"


def test_all_scripts_compile():
    for script in SCRIPTS.glob("*.py"):
        compile(script.read_text(), str(script), "exec")


def test_gen_api_docs_renders(tmp_path):
    out = tmp_path / "api.md"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "gen_api_docs.py"), str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    text = out.read_text()
    assert "## `repro.core`" in text
    assert "DialgaEncoder" in text
    # docs/api.md is generated: a deleted or renamed public name must
    # leave it by regeneration, not by hand.
    assert text == (SCRIPTS.parent / "docs" / "api.md").read_text()


def test_run_all_script_is_executable():
    sh = SCRIPTS / "run_all.sh"
    assert sh.exists()
    assert sh.stat().st_mode & 0o111
