"""Determinism and caching guarantees of :mod:`repro.parallel`.

The contract under test: a sweep's results are a pure function of its
:class:`SweepSpec` — independent of worker count, cache temperature
and scheduling — and cache keys change whenever any simulated-meaning
input changes (so a hit is never stale).
"""

import dataclasses
import os
import pathlib
import pickle
import shutil
import subprocess
import sys

import pytest

from repro.obs import Tracer, use_tracer
from repro.parallel import (
    ContentCache,
    SweepSpec,
    canonical,
    fingerprint,
    run_sweep,
    sim_cache,
    sim_key,
    trace_fingerprint,
)
from repro.parallel.sweep import SweepCell
from repro.simulator import HardwareConfig, simulate
from repro.trace import Workload

VOL = 16 * 1024
LIBS = ("ISA-L", "Zerasure", "DIALGA")
WLS = tuple(
    Workload(k=k, m=m, block_bytes=512, data_bytes_per_thread=VOL)
    for k, m in ((4, 2), (6, 3), (8, 4)))


def small_spec(**over) -> SweepSpec:
    kw = dict(libraries=LIBS, workloads=WLS)
    kw.update(over)
    return SweepSpec(**kw)


# ------------------------------------------------------------ the grid

def test_cells_enumerate_in_stable_workload_major_order():
    spec = small_spec()
    cells = spec.cells()
    assert len(cells) == len(spec) == 9
    assert [c.workload.k for c in cells] == [4, 4, 4, 6, 6, 6, 8, 8, 8]
    assert [c.library for c in cells] == list(LIBS) * 3
    assert cells == spec.cells()  # pure function of the spec


def test_spec_normalizes_lists_and_defaults_hardware():
    spec = SweepSpec(libraries=["ISA-L"], workloads=list(WLS))
    assert isinstance(spec.libraries, tuple)
    assert spec.hardware == (HardwareConfig(),)


def test_spec_requires_a_workload():
    with pytest.raises(ValueError):
        SweepSpec(libraries=LIBS, workloads=())


def test_dialga_kwargs_reach_the_cell_key():
    a = SweepSpec(libraries=("DIALGA",), workloads=WLS[:1])
    b = SweepSpec(libraries=("DIALGA",), workloads=WLS[:1],
                  library_kwargs={"DIALGA": {"chunks": 3}})
    assert a.cells()[0].key() != b.cells()[0].key()


# -------------------------------------------- serial ≡ parallel ≡ warm

def test_parallel_sweep_bit_identical_to_serial():
    spec = small_spec()
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=4)
    assert serial == parallel
    assert serial.counters.snapshot() == parallel.counters.snapshot()
    assert serial.to_dict() == parallel.to_dict()


def test_warm_cache_changes_nothing_and_runs_no_cell():
    spec = small_spec()
    cache = ContentCache()
    cold = run_sweep(spec, workers=2, cache=cache)
    warm = run_sweep(spec, workers=1, cache=cache)
    assert cold == warm
    assert not any(r.cached for r in cold.results)
    assert all(r.cached for r in warm.results)
    assert warm.cache_stats["hits"] == len(spec)


def test_cache_true_builds_a_fresh_store():
    result = run_sweep(small_spec(workloads=WLS[:1]), cache=True)
    assert result.cache_stats["misses"] == len(result)


def test_unsupported_and_failing_cells_are_carried_not_raised():
    # Zerasure has fixed kernels -> pinning a policy is unsupported;
    # library_kwargs on a non-DIALGA library -> recorded error.
    from repro.core import Policy
    spec = SweepSpec(libraries=("Zerasure", "ISA-L"), workloads=WLS[:1],
                     policies=(Policy(sw_distance=8),),
                     library_kwargs={"ISA-L": {"bogus": 1}})
    result = run_sweep(spec)
    zer, isal = result.results
    assert not zer.supported and zer.error is None
    assert isal.supported and "library_kwargs" in isal.error
    # and the same cells fail identically through the pool
    assert run_sweep(spec, workers=2) == result


def test_sweep_result_grouping_and_payload():
    result = run_sweep(small_spec())
    table = result.by_library()
    assert set(table) == set(LIBS)
    assert all(len(rows) == 3 for rows in table.values())
    payload = result.to_dict()
    assert len(payload["cells"]) == 9
    assert payload["counters"] == result.counters.nonzero_dict()


# ------------------------------------------------- fingerprint hygiene

def test_fingerprint_invalidates_on_any_input_change():
    cell = SweepCell("ISA-L", WLS[0], HardwareConfig())
    base = cell.key()
    changed = [
        dataclasses.replace(cell, library="Zerasure"),
        dataclasses.replace(cell, workload=dataclasses.replace(
            WLS[0], block_bytes=1024)),
        dataclasses.replace(cell, hardware=HardwareConfig().with_pm(
            media_latency_ns=400.0)),
        dataclasses.replace(cell, library_kwargs=(("chunks", 3),)),
    ]
    keys = {c.key() for c in changed}
    assert base not in keys and len(keys) == len(changed)


def test_fingerprint_is_stable_across_equal_objects():
    assert (fingerprint(HardwareConfig())
            == fingerprint(HardwareConfig()))
    assert fingerprint(WLS[0]) == fingerprint(dataclasses.replace(WLS[0]))


def test_canonical_encodes_floats_exactly_and_sorts_dicts():
    assert canonical(0.1) != canonical(0.1 + 2 ** -55)
    assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})
    with pytest.raises(TypeError):
        canonical(object())


def test_trace_fingerprint_tracks_content():
    from repro.libs import ISAL
    wl = WLS[0]
    lib = ISAL(wl.k, wl.m)
    hw = HardwareConfig()
    t0 = lib.trace(lib.effective_workload(wl), hw, 0)
    t1 = lib.trace(lib.effective_workload(wl), hw, 0)
    assert trace_fingerprint(t0) == trace_fingerprint(t1)
    t2 = lib.trace(lib.effective_workload(
        dataclasses.replace(wl, block_bytes=1024)), hw, 0)
    assert trace_fingerprint(t0) != trace_fingerprint(t2)


# ---------------------------------------------------------- the store

def test_content_cache_returns_fresh_copies():
    cache = ContentCache()
    cache.put("k", {"list": [1, 2]})
    a = cache.get("k")
    a["list"].append(3)
    assert cache.get("k") == {"list": [1, 2]}


def test_content_cache_disk_round_trip(tmp_path):
    cache = ContentCache(disk=tmp_path)
    cache.put("deadbeef", [1, 2, 3])
    fresh = ContentCache(disk=tmp_path)  # new process, cold memory
    assert fresh.get("deadbeef") == [1, 2, 3]
    assert fresh.disk_hits == 1
    assert (tmp_path / "de" / "deadbeef.pkl").exists()
    assert not list(tmp_path.glob("**/*.tmp.*"))  # atomic writes


def test_cache_dir_env_override(tmp_path, monkeypatch):
    from repro.parallel import default_cache_dir
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
    assert default_cache_dir() == tmp_path / "x"


# ------------------------------------------------ the simulate() seam

def test_sim_cache_serves_identical_results():
    from repro.libs import ISAL
    wl = WLS[0]
    lib = ISAL(wl.k, wl.m)
    hw = HardwareConfig().with_cpu(simd=wl.simd)
    trace = lib.trace(lib.effective_workload(wl), hw, 0)
    fresh = simulate(trace, hw)
    with sim_cache() as store:
        first = simulate(trace, hw)
        again = simulate(trace, hw)
    assert first.makespan_ns == again.makespan_ns == fresh.makespan_ns
    assert first.counters.snapshot() == fresh.counters.snapshot()
    assert store.hits == 1 and store.misses == 1
    # and the hook is gone afterwards
    from repro.simulator import api
    assert api._SIM_CACHE is None


def test_sim_key_depends_on_hardware_and_batching():
    from repro.libs import ISAL
    wl = WLS[0]
    lib = ISAL(wl.k, wl.m)
    hw = HardwareConfig()
    trace = lib.trace(lib.effective_workload(wl), hw, 0)
    k0 = sim_key([trace], hw)
    assert k0 == sim_key([trace], HardwareConfig())
    assert k0 != sim_key([trace], hw.with_pm(media_latency_ns=400.0))
    assert k0 != sim_key([trace], hw, batch_ops=8)
    assert k0 != sim_key([trace, trace], hw)


_PRINT_KEYS = """
from repro.parallel import sim_key
from repro.parallel.sweep import SweepCell
from repro.simulator import HardwareConfig
from repro.trace import Workload
hw = HardwareConfig()
print(sim_key([], hw), SweepCell("ISA-L", Workload(k=4, m=2), hw).key())
"""


def _keys_from(src: pathlib.Path, hash_seed: str, cwd) -> str:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
    return subprocess.run([sys.executable, "-c", _PRINT_KEYS], env=env,
                          cwd=cwd, capture_output=True, text=True,
                          check=True, timeout=120).stdout


def test_cache_keys_follow_the_source_bytes(tmp_path):
    """Keys carry a digest of the package source: equal in two processes
    of the same tree (wherever it lives), different after one byte of
    one module changes, so no cache entry outlives its code."""
    import repro
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    keys = _keys_from(src, "1", tmp_path)
    assert keys == _keys_from(src, "2", tmp_path)
    copy = tmp_path / "src"
    shutil.copytree(src / "repro", copy / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert _keys_from(copy, "1", tmp_path) == keys
    module = copy / "repro" / "simulator" / "params.py"
    data = module.read_bytes()
    module.write_bytes(data[:-1] + b" ")   # last newline -> space
    changed = _keys_from(copy, "1", tmp_path).split()
    assert len(changed) == 2
    assert all(a != b for a, b in zip(changed, keys.split()))


# -------------------------------------------------- tracing + workers

def test_traced_parallel_sweep_absorbs_worker_spans_deterministically():
    spec = small_spec(workloads=WLS[:2])
    with use_tracer(Tracer("serial")) as serial_tr:
        serial = run_sweep(spec, workers=1)
    with use_tracer(Tracer("pool")) as pool_tr:
        parallel = run_sweep(spec, workers=2)
    assert serial == parallel
    assert len(pool_tr.spans) == len(serial_tr.spans) > 0
    assert ([s.name for s in pool_tr.spans]
            == [s.name for s in serial_tr.spans])
    ids = [s.span_id for s in pool_tr.spans]
    assert len(ids) == len(set(ids))  # remapped past collisions


def test_cache_is_skipped_while_tracing():
    spec = small_spec(workloads=WLS[:1])
    cache = ContentCache()
    run_sweep(spec, cache=cache)
    with use_tracer(Tracer("t")) as tr:
        result = run_sweep(spec, cache=cache)
    assert not any(r.cached for r in result.results)
    assert result.cache_stats is None
    assert tr.spans  # the re-run actually recorded


def test_cell_results_pickle_for_the_pool():
    result = run_sweep(small_spec(workloads=WLS[:1]))
    clone = pickle.loads(pickle.dumps(result.results[0]))
    assert clone == result.results[0]


# ----------------------------------------------- worker-death hardening

def test_poisoned_worker_is_resubmitted_and_results_match(tmp_path,
                                                          monkeypatch):
    spec = small_spec(workloads=WLS[:2])
    baseline = run_sweep(spec, workers=2)
    flag = tmp_path / "poison-once"
    # Cell 2's worker hard-exits once; the resubmitted attempt survives
    # (the flag file exists by then) and the sweep is *byte-identical*
    # to the fault-free run.
    monkeypatch.setenv("REPRO_SWEEP_POISON", f"2:{flag}")
    recovered = run_sweep(spec, workers=2)
    assert recovered == baseline
    assert recovered.fault_stats is not None
    assert recovered.fault_stats["pool_restarts"] >= 1
    assert recovered.fault_stats["resubmitted_cells"] >= 1
    assert recovered.fault_stats["abandoned_cells"] == 0
    assert flag.exists()


def test_resubmission_budget_exhaustion_surfaces_errors(monkeypatch):
    spec = small_spec(workloads=WLS[:2])
    # No flag file: the poisoned cell dies on *every* attempt.
    monkeypatch.setenv("REPRO_SWEEP_POISON", "2")
    result = run_sweep(spec, workers=2, max_resubmits=1)
    dead = result.results[2]
    assert dead.error is not None and "resubmission budget" in dead.error
    assert result.fault_stats["abandoned_cells"] >= 1
    # The sweep still completed: every cell has a result, and the only
    # errors are worker-death ones (cells in flight when the pool broke
    # may be abandoned alongside the poisoned cell).
    assert all(r is not None for r in result.results)
    for r in result.results:
        if r.supported and r.error is not None:
            assert "worker died" in r.error
    assert any(r.error is None for r in result.results if r.supported)


def test_executor_fault_errors_never_poison_the_cache(monkeypatch):
    spec = small_spec(workloads=WLS[:1])
    cache = ContentCache()
    monkeypatch.setenv("REPRO_SWEEP_POISON", "1")
    faulted = run_sweep(spec, workers=2, cache=cache, max_resubmits=0)
    assert "worker died" in faulted.results[1].error
    monkeypatch.delenv("REPRO_SWEEP_POISON")
    # Warm run: the dead cell was never memoized, so it re-executes and
    # now matches a fault-free sweep.
    healed = run_sweep(spec, workers=2, cache=cache)
    assert healed == run_sweep(spec, workers=1)
    assert healed.results[1].error is None


def test_fault_stats_absent_on_clean_runs():
    clean = run_sweep(small_spec(workloads=WLS[:1]), workers=2)
    assert clean.fault_stats is None
    assert run_sweep(small_spec(workloads=WLS[:1])).fault_stats is None


def test_cell_timeout_returns_error_result():
    # Serial path ignores the timeout; exercise the accounting shape
    # via a tiny parallel run where nothing actually hangs.
    result = run_sweep(small_spec(workloads=WLS[:2]), workers=2,
                       cell_timeout_s=120.0)
    assert all(r.error is None for r in result.results if r.supported)
    assert result.fault_stats is None
