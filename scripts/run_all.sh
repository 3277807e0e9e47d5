#!/usr/bin/env bash
# Full reproduction pipeline: install, test, regenerate every figure,
# rebuild the reports. Mirrors what CI would run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== install =="
pip install -e . 2>/dev/null || python setup.py develop

echo "== unit / property / integration tests =="
# pyproject.toml turns every DeprecationWarning into an error here.
python -m pytest tests/ 2>&1 | tee test_output.txt

echo "== hostbench job (own tests + pinned digests + host-time gate) =="
# Each gate call runs hostbench/run.py, which checks every simulation
# against hostbench/digests.json and exits non-zero on any mismatch or
# failed operation, so single-thread (fast-forward included), multicore
# and service byte-identity is gated here, not only by figure reruns.
# The gate times the change against its parent commit in the same job
# (5 alternating runs each), appends every result line to
# BENCH_history.jsonl and fails when a metric is worse than the
# parent's by more than both its BENCHMARK.json bound and 3x the
# parent runs' IQR/median.
python3 -m pytest hostbench -q
for w in sweep_1t scale_mt service_mix; do
    python3 scripts/check_regression.py --workload "$w" --seed 0 --seconds 1
done

echo "== lint (ruff, skipped when unavailable) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests examples
else
    echo "ruff not installed; skipping lint"
fi

echo "== trace smoke job (bench --trace + schema check) =="
# A tiny traced bench run must produce a valid Chrome trace_event file
# carrying the acceptance triple on one timeline: a coordinator policy
# switch, a simulator phase span and a service request span.
python -m repro.bench service --trace trace_smoke.json
python scripts/check_trace.py trace_smoke.json \
    --require coordinator.policy_switch \
    --require sim.chunk \
    --require service.request

echo "== bench sweep smoke job (parallel ≡ serial ≡ warm) =="
# The smoke grid runs serial, parallel (--workers 2) and warm-cache and
# exits non-zero unless all three produce bit-identical results.
python -m repro.bench sweep --grid smoke --workers 2

echo "== scenario rerun job (shape checks, same seed same bytes) =="
# Each scenario exits non-zero on a failing shape check. The two runs
# get their own interpreter and hash seed, only the first is traced,
# and check_rerun.py demands equal deterministic projections.
scenarios="audit chaos crash overload fastforward"
PYTHONHASHSEED=1 python -m repro.bench $scenarios --seed 0 \
    --out rerun_a --json --trace rerun_trace.json
PYTHONHASHSEED=2 python -m repro.bench $scenarios --seed 0 \
    --out rerun_b --json
python scripts/check_rerun.py rerun_a rerun_b
python scripts/check_trace.py rerun_trace.json \
    --require decision.evaluated --require decision.switch \
    --require overload.shed --require overload.brownout_enter \
    --require overload.brownout_exit --require sim.fastforward
grep -q "\[PASS\] long encode fast-forward speedup" \
    rerun_a/fastforward_scenario.txt

echo "== slow campaigns (soak tests deselected from tier-1) =="
python -m pytest tests/ -m slow 2>&1 | tee slow_output.txt

echo "== figure and ablation experiments (writes benchmarks/results/) =="
# Exits non-zero unless every shape check passes.
ids=$(python -c 'from repro.bench.figures import ALL_FIGURES; from repro.bench.ablations import ALL_ABLATIONS; print(*ALL_FIGURES, *ALL_ABLATIONS)')
python -m repro.bench $ids --out benchmarks/results --json \
    2>&1 | tee bench_output.txt
# Simulated results are invariants: a memo or refactor that shifts a
# paper figure fails here instead of being committed unnoticed.
git diff --exit-code -- benchmarks/results

echo "== paper-vs-measured report (renders the JSON, no simulation) =="
python scripts/make_experiments_md.py

echo "== API reference =="
python scripts/gen_api_docs.py

echo "all done"
