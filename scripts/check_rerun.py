#!/usr/bin/env python3
"""Compare two ``python -m repro.bench ... --out DIR --json`` runs.

Each ``<id>.json`` pair is compared on ``FigureResult.deterministic()``
(the result minus its declared host wall-clock columns); the first
differing row, check or note of each differing id is printed. Exits 1
on any difference, on differing id sets or when there is nothing to
compare. Make the runs in separate interpreters: no shared memo.

Usage:  python scripts/check_rerun.py DIR_A DIR_B
"""

from __future__ import annotations

import json
import pathlib
import sys
from itertools import zip_longest

from repro.bench.report import FigureResult

MISSING = "<missing>"


def load(directory: pathlib.Path) -> dict[str, dict]:
    """``{id: to_dict() form}`` of every ``<id>.json`` in ``directory``."""
    return {p.stem: json.loads(p.read_text())
            for p in sorted(directory.glob("*.json"))}


def _first(xs, ys):
    """``(index, x, y)`` where two sequences first differ."""
    return next((i, x, y) for i, (x, y) in enumerate(
        zip_longest(xs, ys, fillvalue=MISSING)) if x != y)


def first_difference(a: dict, b: dict) -> str | None:
    """The first differing field, row, check or note of two projections,
    narrowed to its first differing cell or line."""
    for field in dict.fromkeys([*a, *b]):
        x, y = a.get(field, MISSING), b.get(field, MISSING)
        if x == y:
            continue
        if isinstance(x, list) and isinstance(y, list):
            i, x, y = _first(x, y)
            field = f"{field}[{i}]"
        if isinstance(x, dict) and isinstance(y, dict):
            key = next(k for k in dict.fromkeys([*x, *y])
                       if x.get(k, MISSING) != y.get(k, MISSING))
            field += f": {x.get('point', x.get('description'))!r} {key}"
            x, y = x.get(key, MISSING), y.get(key, MISSING)
        elif isinstance(x, str) and isinstance(y, str):
            _, x, y = _first(x.splitlines(True), y.splitlines(True))
        return f"{field}: {x!r} != {y!r}"
    return None


def compare(runs_a: dict[str, dict], runs_b: dict[str, dict]) -> list[str]:
    """One problem line per id that differs or is missing from one side."""
    problems = [f"{fid}: only in {'A' if fid in runs_a else 'B'}"
                for fid in sorted(runs_a.keys() ^ runs_b.keys())]
    for fid in sorted(runs_a.keys() & runs_b.keys()):
        diff = first_difference(
            FigureResult.from_dict(runs_a[fid]).deterministic(),
            FigureResult.from_dict(runs_b[fid]).deterministic())
        if diff is not None:
            problems.append(f"{fid}: {diff}")
    return problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    runs_a, runs_b = (load(pathlib.Path(d)) for d in args)
    problems = (compare(runs_a, runs_b) if runs_a or runs_b
                else [f"no <id>.json in {args[0]} or {args[1]}"])
    for p in problems:
        print(f"DIFFERS: {p}", file=sys.stderr)
    if not problems:
        print(f"{len(runs_a)} experiment(s) identical: {', '.join(runs_a)}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
