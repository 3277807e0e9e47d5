#!/usr/bin/env python3
"""The host-time regression gate.

    python3 scripts/check_regression.py --workload W --seed N --seconds S

Times the change against its parent in the same job. The change is this
checkout; its parent is HEAD when the tree is dirty and HEAD~1 when it
is clean, exported from git into a temporary directory. The gate runs
``hostbench/run.py --trace 0`` in both, ``PAIRS`` times each, in
alternating order, so host drift between jobs (or within one) slows
both sides alike. Any run that exits non-zero (a digest mismatch or a
failed operation) ends the gate with its code.

Every run's last-line JSON, plus ``rev`` and the three arguments, is
appended to ``BENCH_history.jsonl``. Each end-to-end metric of
``BENCHMARK.json`` is then compared between the newest ``PAIRS`` records
of the change and of the parent. A metric is flagged, and the gate exits
1, only when the change's median is worse than the parent's median by
more than both the metric's ``bound`` and ``K`` times the IQR/median of
the parent's records. With fewer than ``PAIRS`` parent records (no
parent commit, or a parent without ``hostbench/run.py``) the verdict is
``unresolved`` and the gate passes.

``rev`` is ``git rev-parse HEAD``, with ``-dirty`` added when a tracked
file other than the ledger differs from HEAD. A parent is always a clean
commit, so a dirty record is never a baseline.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = "BENCH_history.jsonl"

#: A metric's noise limit is K times the parent's IQR/median.
K = 3
#: Runs per side; fewer parent records than this leave the verdict
#: unresolved.
PAIRS = 5


def _git(root: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=root, text=True,
                          capture_output=True)


def revisions(root: pathlib.Path) -> tuple[str, str | None]:
    """``(rev, parent)`` of the checkout at ``root``.

    ``rev`` is HEAD, suffixed ``-dirty`` when a tracked file but the
    ledger differs from it. The parent of a dirty tree is HEAD, that of
    a clean one HEAD~1 (None for a root commit).
    """
    head = _git(root, "rev-parse", "HEAD")
    if head.returncode != 0:
        raise SystemExit(f"check_regression: {root} is not a git checkout")
    head_rev = head.stdout.strip()
    if _git(root, "diff", "--quiet", "HEAD", "--", ".",
            f":(exclude){LEDGER}").returncode != 0:
        return head_rev + "-dirty", head_rev
    parent = _git(root, "rev-parse", "--verify", "-q", "HEAD~1")
    return head_rev, (parent.stdout.strip() or None)


def make_record(result: dict, rev: str, workload: str, seed: int,
                seconds: float) -> dict:
    """One ledger record: run.py's result line, keyed by rev and args."""
    return {"rev": rev, "workload": workload, "seed": seed,
            "seconds": seconds, **result}


def select(records: list[dict], rev: str | None, key: tuple) -> list[dict]:
    """The newest ``PAIRS`` records of ``rev`` whose (workload, seed,
    seconds) is ``key``."""
    return [r for r in records if r["rev"] == rev
            and (r["workload"], r["seed"], r["seconds"]) == key][-PAIRS:]


def judge(records: list[dict], rev: str, parent: str | None, key: tuple,
          spec: list[dict]) -> tuple[int, str]:
    """Exit code and report for the change ``rev`` against ``parent``.

    ``spec`` is ``BENCHMARK.json``'s ``end_to_end`` list. A metric's
    ``worse`` is the change's median relative to the parent's median,
    positive when worse in its ``better`` direction; its ``limit`` is
    the larger of ``bound`` and K x IQR/median of the parent's records.
    """
    baseline, change = select(records, parent, key), select(records, rev, key)
    head = (f"gate: {key[0]} seed={key[1]} seconds={key[2]:g}, "
            f"rev {rev[:12]} ({len(change)} record(s))")
    if len(baseline) < PAIRS:
        return 0, (f"{head}: unresolved, parent has {len(baseline)} "
                   f"record(s), needs {PAIRS}")
    lines = [f"{head} vs parent {parent[:12]} ({len(baseline)} record(s))",
             f"  {'metric':16s} {'parent':>14s} {'change':>14s}"]
    flagged = []
    for m in spec:
        name = m["name"]
        base = [r["metrics"][name]["value"] for r in baseline]
        new = [r["metrics"][name]["value"] for r in change]
        base_med, new_med = statistics.median(base), statistics.median(new)
        q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
        sign = 1 if m["better"] == "lower" else -1
        worse = sign * (new_med - base_med) / base_med
        noise = (q3 - q1) / base_med
        limit = max(m["bound"], K * noise)
        regressed = worse > limit
        if regressed:
            flagged.append(name)
        lines.append(f"  {name:16s} {base_med:14.6f} {new_med:14.6f} "
                     f"worse {worse:+7.1%} IQR/median {noise:5.1%} "
                     f"limit {limit:6.1%}  "
                     f"{'REGRESSION' if regressed else 'ok'}")
    lines.append(f"gate: {len(flagged)} metric(s) regressed"
                 + (f": {', '.join(flagged)}" if flagged else ""))
    return (1 if flagged else 0), "\n".join(lines)


def export(root: pathlib.Path, rev: str, dest: str) -> bool:
    """Write the tree of ``rev`` into ``dest``; True when it has a
    ``hostbench/run.py`` to time."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=root,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"check_regression: git archive {rev} failed")
    return (pathlib.Path(dest) / "hostbench" / "run.py").is_file()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    key = (args.workload, args.seed, args.seconds)

    rev, parent = revisions(ROOT)
    ledger = ROOT / LEDGER
    with tempfile.TemporaryDirectory() as tmp:
        if parent is not None and not export(ROOT, parent, tmp):
            parent = None
        sides = [(ROOT, rev)] + ([(pathlib.Path(tmp), parent)]
                                 if parent else [])
        for i in range(PAIRS if parent else 1):
            for tree, side in (sides[::-1] if i % 2 == 0 else sides):
                proc = subprocess.run(
                    [sys.executable, str(tree / "hostbench" / "run.py"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", "0"],
                    cwd=tree, stdout=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    print(proc.stdout, end="")
                    print(f"gate: run {i + 1} of rev {side[:12]} exited "
                          f"{proc.returncode}")
                    return proc.returncode
                record = make_record(
                    json.loads(proc.stdout.strip().splitlines()[-1]), side,
                    *key)
                with ledger.open("a") as fh:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
                print(f"gate: run {i + 1} of rev {side[:12]}: wall_s "
                      f"{record['metrics']['wall_s']['value']:.3f}",
                      flush=True)

    records = [json.loads(line) for line in ledger.read_text().splitlines()
               if line.strip()]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    code, report = judge(records, rev, parent, key, spec)
    print(report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
