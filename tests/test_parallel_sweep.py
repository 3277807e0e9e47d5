"""Determinism and caching guarantees of :mod:`repro.parallel`.

The contract under test: a sweep's results are a pure function of its
:class:`SweepSpec` — independent of worker count, cache temperature
and scheduling — and cache keys change whenever any simulated-meaning
input changes (so a hit is never stale).
"""

import dataclasses
import functools
import multiprocessing
import os
import pathlib
import pickle
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
from repro.parallel import sweep
from repro.parallel.sweep import LIBRARIES, SweepCell
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
    from repro.libs import ISAL
    spec = SweepSpec(libraries=["ISA-L"], workloads=list(WLS))
    assert isinstance(spec.libraries, tuple)
    assert isinstance(spec.workloads, tuple)
    # Every cell runs on the default testbed.
    wl = WLS[0]
    expected = ISAL(wl.k, wl.m).run(wl, HardwareConfig()).sim
    cell = run_sweep(spec).results[0]
    assert cell.makespan_ns == expected.makespan_ns
    assert cell.counters.snapshot() == expected.counters.snapshot()


def test_spec_requires_a_workload():
    with pytest.raises(ValueError):
        SweepSpec(libraries=LIBS, workloads=())


def test_spec_rejects_unknown_library_names():
    with pytest.raises(ValueError) as info:
        SweepSpec(libraries=("ISAL", "ISA-L"), workloads=WLS[:1])
    message = str(info.value)
    assert "'ISAL'" in message
    assert all(name in message for name in LIBRARIES)
    assert SweepSpec(workloads=WLS[:1]).libraries == LIBRARIES


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
    assert cold.cache_stats["misses"] == len(spec)
    assert not any(r.cached for r in cold.results)
    assert all(r.cached for r in warm.results)
    assert warm.cache_stats["hits"] == len(spec)


def test_unsupported_and_failing_cells_are_carried_not_raised(monkeypatch):
    # Zerasure's matrix search does not converge on a wide stripe ->
    # unsupported; a library whose run() raises -> recorded error.
    from repro.libs import ISAL

    def boom(self, workload, hardware=None, *, policy=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(ISAL, "run", boom)
    wide = Workload(k=48, m=4, block_bytes=512,
                    data_bytes_per_thread=48 * 512)
    spec = SweepSpec(libraries=("Zerasure", "ISA-L"), workloads=[wide])
    result = run_sweep(spec)
    zer, isal = result.results
    assert not zer.supported and zer.error is None
    assert isal.supported and isal.error == "RuntimeError: boom"
    # and the same cells fail identically through the pool
    assert run_sweep(spec, workers=2) == result


def test_sweep_result_grouping_and_payload():
    result = run_sweep(small_spec())
    payload = result.to_dict()
    assert len(payload["cells"]) == 9
    assert payload["counters"] == result.counters.nonzero_dict()


# ------------------------------------------------- fingerprint hygiene

def test_fingerprint_invalidates_on_any_input_change():
    # Hardware sensitivity lives in sim_key (cells all run on the
    # default testbed): see test_sim_key_depends_on_hardware_and_batching.
    cell = SweepCell("ISA-L", WLS[0])
    base = cell.key()
    changed = [
        dataclasses.replace(cell, library="Zerasure"),
        dataclasses.replace(cell, workload=dataclasses.replace(
            WLS[0], block_bytes=1024)),
        dataclasses.replace(cell, workload=dataclasses.replace(
            WLS[0], op="decode", erasures=1)),
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
print(sim_key([], hw), SweepCell("ISA-L", Workload(k=4, m=2)).key())
"""


def _keys_from(src: pathlib.Path, hash_seed: str, cwd) -> str:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
    return subprocess.run([sys.executable, "-c", _PRINT_KEYS], env=env,
                          cwd=cwd, capture_output=True, text=True,
                          check=True, timeout=120).stdout


def test_cache_keys_are_stable_across_processes(tmp_path):
    """Keys are a pure function of the inputs: two processes under
    different hash seeds compute the same ones."""
    import repro
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    keys = _keys_from(src, "1", tmp_path)
    assert len(keys.split()) == 2
    assert keys == _keys_from(src, "2", tmp_path)


# -------------------------------------------------- tracing + workers

def test_traced_parallel_sweep_absorbs_worker_spans_deterministically():
    """A traced sweep runs in-process whatever ``workers`` says, so its
    spans land on the ambient tracer in cell order."""
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
    assert len(ids) == len(set(ids))


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
#
# The pool forks its workers after the test patches ``_run_cell``, so
# the patch runs in them. These stand-ins are module-level so the pool
# can pickle them by reference.

_real_run_cell = sweep._run_cell


def _die_once(flag: str, index: int, cell):
    """Hard-kill the worker running cell 2 while ``flag`` is absent
    (creating it first), so the resubmitted attempt survives."""
    if index == 2 and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(1)
    return _real_run_cell(index, cell)


def _die_on(target: int, index: int, cell):
    """Hard-kill the worker running cell ``target`` on every attempt."""
    if index == target:
        os._exit(1)
    return _real_run_cell(index, cell)


def test_poisoned_worker_is_resubmitted_and_results_match(tmp_path,
                                                          monkeypatch):
    assert multiprocessing.get_start_method() == "fork"
    spec = small_spec(workloads=WLS[:2])
    baseline = run_sweep(spec, workers=2)
    flag = tmp_path / "poison-once"
    # Cell 2's worker hard-exits once; the resubmitted attempt survives
    # and the sweep is *byte-identical* to the fault-free run.
    monkeypatch.setattr(sweep, "_run_cell",
                        functools.partial(_die_once, str(flag)))
    recovered = run_sweep(spec, workers=2)
    assert recovered == baseline
    assert flag.exists()


def test_resubmission_budget_exhaustion_surfaces_errors(monkeypatch):
    assert multiprocessing.get_start_method() == "fork"
    spec = small_spec(workloads=WLS[:2])
    # The patched cell dies on *every* attempt.
    monkeypatch.setattr(sweep, "_run_cell", functools.partial(_die_on, 2))
    result = run_sweep(spec, workers=2)
    dead = result.results[2]
    assert dead.error is not None and "resubmission budget" in dead.error
    assert f"({sweep.MAX_RESUBMITS})" in dead.error
    # The sweep still completed: every cell has a result, and the only
    # errors are worker-death ones (cells in flight when the pool broke
    # may be abandoned alongside the poisoned cell).
    assert all(r is not None for r in result.results)
    for r in result.results:
        if r.supported and r.error is not None:
            assert "worker died" in r.error
    assert any(r.error is None for r in result.results if r.supported)


def test_executor_fault_errors_never_poison_the_cache(monkeypatch):
    assert multiprocessing.get_start_method() == "fork"
    spec = small_spec(workloads=WLS[:1])
    cache = ContentCache()
    monkeypatch.setattr(sweep, "_run_cell", functools.partial(_die_on, 1))
    faulted = run_sweep(spec, workers=2, cache=cache)
    assert "worker died" in faulted.results[1].error
    monkeypatch.setattr(sweep, "_run_cell", _real_run_cell)
    # Warm run: the dead cell was never memoized, so it re-executes and
    # now matches a fault-free sweep.
    healed = run_sweep(spec, workers=2, cache=cache)
    assert healed == run_sweep(spec, workers=1)
    assert healed.results[1].error is None
    assert not healed.results[1].cached
