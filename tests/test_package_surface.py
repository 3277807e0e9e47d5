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
