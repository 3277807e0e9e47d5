"""Guard rails on the public package surface.

These catch accidental API breakage: every name in each package's
``__all__`` must resolve, be importable from the package, and carry a
docstring — the contract docs/api.md is generated from.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.gf",
    "repro.matrix",
    "repro.codes",
    "repro.xorsched",
    "repro.simulator",
    "repro.trace",
    "repro.libs",
    "repro.core",
    "repro.bench",
    "repro.parallel",
    "repro.pmstore",
    "repro.service",
    "repro.chaos",
    "repro.obs",
    "repro.crash",
]


@pytest.mark.parametrize("pkg", PACKAGES)
def test_all_exports_resolve(pkg):
    module = importlib.import_module(pkg)
    assert hasattr(module, "__all__"), f"{pkg} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{pkg}.{name} missing"


@pytest.mark.parametrize("pkg", PACKAGES)
def test_public_classes_and_functions_documented(pkg):
    module = importlib.import_module(pkg)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, f"{pkg}: undocumented {undocumented}"


def test_version_string():
    import repro
    assert repro.__version__.count(".") == 2


def test_no_cross_layer_imports():
    """The substrate must not import the contribution (layering check)."""
    import pathlib
    src = pathlib.Path(importlib.import_module("repro").__file__).parent
    lower_layers = ["gf", "matrix", "codes", "xorsched", "simulator"]
    for layer in lower_layers:
        for py in (src / layer).rglob("*.py"):
            text = py.read_text()
            assert "from repro.core" not in text, f"{py} imports repro.core"
            assert "from repro.libs" not in text, f"{py} imports repro.libs"
            assert "from repro.bench" not in text, f"{py} imports repro.bench"


def test_no_module_reads_the_environment():
    """Configuration travels through parameters, never env vars: no
    module under ``src/repro`` touches ``os.environ``/``os.getenv``."""
    import ast
    import pathlib
    src = pathlib.Path(importlib.import_module("repro").__file__).parent
    offenders = []
    for py in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(py.read_text(), str(py))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                name = next((a.name for a in node.names
                             if a.name in ("environ", "getenv")), None)
            else:
                continue
            if name in ("environ", "getenv"):
                offenders.append(f"{py.relative_to(src)}:{node.lineno}")
    assert offenders == []


def _fresh_interpreter(code: str) -> str:
    """Run ``code`` in a new interpreter on this checkout's ``repro``;
    return its standard output."""
    import os
    import pathlib
    import subprocess
    import sys
    src = pathlib.Path(importlib.import_module("repro").__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout


_SWEEP_IMPORT_SURFACE = """
import sys
import repro.parallel, repro.trace
from repro.gf import tables
unwanted = ("repro.chaos", "repro.crash", "repro.service", "repro.pmstore",
            "concurrent.futures.process")
print(*[m for m in unwanted if m in sys.modules])
print(*sorted(w for w, _ in tables._CACHE))
"""


def test_sweep_imports_no_unused_stack_and_build_no_gf16():
    """What a sweep imports pays only for what a sweep runs: no
    service-side stack, no process pool, no GF(2^16) tables."""
    unwanted, widths = _fresh_interpreter(_SWEEP_IMPORT_SURFACE).splitlines()
    assert unwanted == ""
    assert "16" not in widths.split()


# Reads the seam without importing repro.parallel.cache, whose import
# alone would install the memo.
_MEMO_INSTALLED = """
import sys
import {module}
memo = sys.modules["repro.simulator.multicore"]._SIM_CACHE
print(type(memo).__module__, type(memo).__qualname__)
"""


def test_memo_installs_on_the_simulator_path_and_gf16_builds_on_access():
    """Whichever module a process imports first, ``repro.simulate``
    memoizes; ``gf16`` is one object, built on first access."""
    import numpy as np

    import repro.gf
    from repro.gf import GFTables, gf16
    for module in ("repro.simulator", "repro.service"):
        out = _fresh_interpreter(_MEMO_INSTALLED.format(module=module))
        assert out == "repro.parallel.cache SimCache\n", module
    assert repro.gf.gf16 is gf16 is repro.gf.arithmetic.gf16
    ref = GFTables.build(16)
    assert gf16.tables.poly == ref.poly and gf16.tables.mul is None
    for name in ("exp", "log", "inv"):
        assert np.array_equal(getattr(gf16.tables, name), getattr(ref, name))
