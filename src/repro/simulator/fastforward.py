"""Exact steady-state fast-forward for single-thread simulation.

EC traces repeat one per-stripe kernel thousands of times with every
address shifted by a constant stride (:mod:`repro.trace.period`). Once
the simulator reaches *steady state* — the LRU structures are full and
each period leaves the machine in the same state merely relocated by
one stripe — interpreting the remaining periods recomputes information
we already have. :func:`run_fastforward` detects that fixed point and
skips ahead by exact extrapolation, producing output **byte-identical**
to plain interpretation:

1. **Detect** the periodic region with pure array arithmetic.
2. **Interpret** period by period (through the engine's interpreter,
   chunked via ``ThreadContext.run(until=...)``), taking a cheap
   fingerprint at every period boundary: elapsed ns, the full counter
   delta, and the model occupancy sizes. Only when consecutive cheap
   fingerprints agree is the full **shift-invariant digest** computed —
   the exact content of the cache, stream table, read buffer and
   bandwidth pipes, with addresses rebased by the per-period stride and
   *live* times (later than the clock) as offsets from the clock.
   Times already in the past are behaviorally dead (every consumer
   clamps or ignores them) and digest as a sentinel.
3. **Jump**: after two consecutive boundary pairs with identical cheap
   fingerprints, the latest digest-certified, the next N periods are
   pure translations. The jump applies ``counters += N*delta``,
   ``clock += N*dt`` and relabels every model by ``N*stride`` /
   ``N*dt``. While validated, later boundaries are certified by the
   cheap fingerprint alone (exact float equality of every counter
   accumulator pins the behavior; unconsumed state cannot diverge
   silently), so the O(cache) digest is recomputed only after a jump
   or a fingerprint break.

Exactness under IEEE-754 rests on a binade argument: floats within one
binade are exactly the multiples of one ulp ``u``, so translating the
clock by a multiple of ``u`` shifts every downstream rounding decision
exactly — the measured ``dt`` *is* such a multiple, and the validated
periods certify there is no round-half-to-even tie flipping with the
shift parity (a tie would make consecutive deltas differ). The jump
length is therefore bounded so that the clock, every live time and
every float counter accumulator stays inside its current binade; at a
binade crossing the per-period rounding legitimately changes, so the
loop re-interprets a few periods and re-validates before jumping again
(a handful of crossings per run — binades double in width).

Anything non-periodic — update traces, chaos faults, adaptive policy
switches, subclassed models — fails detection or never converges, and
the trace runs under plain interpretation, bit-for-bit as before.
"""

from __future__ import annotations

import math
from dataclasses import fields

from repro.simulator.cache import CoreCache
from repro.simulator.counters import Counters
from repro.simulator.engine import ThreadContext
from repro.simulator.memory import DRAMBackend, PMBackend
from repro.simulator.readbuffer import PMReadBuffer
from repro.simulator.streamprefetcher import StreamPrefetcher
from repro.trace.period import detect_period

__all__ = ["run_fastforward", "MIN_PERIODS", "CONFIRM_PERIODS"]

#: Minimum complete periods for detection to bother reporting.
MIN_PERIODS = 4
#: Consecutive identical cheap boundary pairs (elapsed ns + exact
#: counter deltas + occupancies), the latest also digest-certified,
#: required before extrapolating — two pairs span three boundaries
#: and screen parity-alternating rounding ties.
CONFIRM_PERIODS = 2
#: Extra periods of headroom kept below every binade top (absorbs the
#: float rounding of the bound computation itself).
BINADE_MARGIN = 4
#: Smallest jump worth the relabel cost (rebuilding the cache's
#: OrderedDict costs a few interpreted periods' worth of time).
MIN_JUMP = 16

_INT_FIELDS = tuple(f.name for f in fields(Counters)
                    if isinstance(f.default, int))
_FLOAT_FIELDS = tuple(f.name for f in fields(Counters)
                      if isinstance(f.default, float))


def _stats(engaged: bool, reason: str | None = None, **extra) -> dict:
    out = {"engaged": engaged, "reason": reason,
           "periods_total": 0, "periods_interpreted": 0,
           "periods_skipped": 0, "jumps": 0, "converged_at_op": None,
           "period_ops": 0, "stride": 0}
    out.update(extra)
    return out


def _unsupported(ctx: ThreadContext) -> str | None:
    """Reason the context cannot be fast-forwarded, or None."""
    if type(ctx) is not ThreadContext:
        return "subclassed context"
    if type(ctx.counters) is not Counters:
        return "subclassed counters"
    if type(ctx.cache) is not CoreCache:
        return "subclassed cache"
    if type(ctx.prefetcher) is not StreamPrefetcher:
        return "subclassed prefetcher"
    for backend in (ctx.load_backend, ctx.store_backend):
        if type(backend) not in (PMBackend, DRAMBackend):
            return "subclassed backend"
        if (type(backend) is PMBackend
                and type(backend.read_buffer) is not PMReadBuffer):
            return "subclassed read buffer"
    return None


def _pipes(ctx: ThreadContext) -> tuple:
    """Every bandwidth pipe of the run (backends may be one object)."""
    load, store = ctx.load_backend, ctx.store_backend
    if store is load:
        return load.pipes()
    return load.pipes() + store.pipes()


def _jump_bound(value: float, per_period: float, extra: float) -> int | None:
    """Periods ``value`` can advance by ``per_period`` within its binade.

    None means unbounded (nothing accumulates). 0 means no exact jump
    is currently possible — ``per_period`` is not a multiple of the
    value's ulp (it straddled a binade crossing) or the binade top is
    too close; interpretation continues and re-validates past it.
    ``extra`` reserves additional headroom below the top (the furthest
    live time offset, for the clock bound).
    """
    if per_period == 0.0:
        return None
    if per_period < 0.0 or value <= 0.0:
        return 0
    u = math.ulp(value)
    if not (per_period / u).is_integer():
        return 0
    top = math.ldexp(1.0, math.frexp(value)[1])
    headroom = top - value - extra - BINADE_MARGIN * per_period
    if headroom <= 0.0:
        return 0
    return int(headroom / per_period)


def run_fastforward(ctx: ThreadContext) -> dict:
    """Execute ``ctx``'s trace to completion, skipping steady periods.

    Byte-identical to ``ctx.run()`` in every counter and in the clock;
    returns a stats dict (``engaged``, ``periods_skipped``, ``jumps``,
    ``converged_at_op``, decline ``reason``, ...). Emits one
    ``sim.fastforward`` tracer event per jump.
    """
    from repro.obs import get_tracer

    reason = _unsupported(ctx)
    if reason is not None:
        ctx.run()
        return _stats(False, reason)
    info = detect_period(ctx.trace, start_pc=ctx.pc,
                         min_periods=MIN_PERIODS)
    if info is None:
        ctx.run()
        return _stats(False, "no periodic structure")
    stride = info.stride
    page_bytes = ctx.prefetcher.config.page_bytes
    grains = [64, page_bytes]
    pm = ctx.load_backend if type(ctx.load_backend) is PMBackend else None
    if pm is not None:
        grains.append(pm.config.xpline_bytes)
    if any(stride % g for g in grains):
        ctx.run()
        return _stats(False, "stride not model-aligned",
                      period_ops=info.period_ops, stride=stride,
                      periods_total=info.periods)

    tracer = get_tracer()
    counters = ctx.counters
    cache = ctx.cache
    prefetcher = ctx.prefetcher
    pipes = _pipes(ctx)
    rb = pm.read_buffer if pm is not None else None

    # Interpret up to the periodic region (prolog, if any).
    ctx.run(until=info.start)

    q = 0                      # period boundaries completed
    interpreted = 0
    skipped = 0
    jumps = 0
    converged_at = None
    prev_clock = ctx.clock
    prev_snap = counters.snapshot()
    prev_dt = None
    prev_delta = None
    prev_lens = None
    prev_digest = None
    streak = 0                 # consecutive equal cheap fingerprints
    validated = False          # digest-certified steady state
    live = 0.0                 # furthest live time offset at validation

    while q < info.periods:
        ctx.run(until=info.boundary(q + 1))
        q += 1
        interpreted += 1
        clock = ctx.clock
        dt = clock - prev_clock
        snap = counters.snapshot()
        delta = snap.delta(prev_snap)
        lens = (len(cache._lines), len(prefetcher._table),
                len(rb._entries) if rb is not None else 0)
        cheap_ok = (dt == prev_dt and delta == prev_delta
                    and lens == prev_lens)
        prev_clock, prev_snap = clock, snap
        prev_dt, prev_delta, prev_lens = dt, delta, lens
        if not cheap_ok:
            streak = 0
            validated = False
            prev_digest = None
            continue
        streak += 1
        if not validated:
            # Digesting is only worth it if a jump could follow: with
            # the most optimistic live offset (0), would the binade
            # bounds even allow MIN_JUMP periods? Just below a binade
            # top they do not — skip the O(cache) digest and keep
            # interpreting until past the crossing.
            optimistic = info.periods - q
            bound = _jump_bound(clock, dt, 0.0)
            if bound is not None and bound < optimistic:
                optimistic = bound
            for name in _FLOAT_FIELDS:
                bound = _jump_bound(getattr(counters, name),
                                    getattr(delta, name), 0.0)
                if bound is not None and bound < optimistic:
                    optimistic = bound
            if optimistic < MIN_JUMP:
                prev_digest = None
                continue
            # Cheap fingerprints agree: compare the full relocated
            # state. Validation needs CONFIRM_PERIODS consecutive
            # equal cheap pairs, the latest also digest-certified —
            # once it holds, live offsets are pinned by the digest and
            # every later boundary's exact counter/dt equality keeps
            # certifying steadiness, so the digest need not be redone
            # until a cheap fingerprint breaks (a binade crossing).
            shift = q * stride
            cache_digest, max_live = cache.state_digest(clock, shift)
            live = max_live
            pipe_digest = []
            for pipe in pipes:
                rel = pipe.rel_free(clock)
                pipe_digest.append(rel)
                if rel is not None and rel > live:
                    live = rel
            digest = (cache_digest, prefetcher.state_digest(shift),
                      rb.state_digest(shift) if rb is not None else (),
                      tuple(pipe_digest))
            if (streak >= CONFIRM_PERIODS and prev_digest is not None
                    and digest == prev_digest):
                validated = True
                if converged_at is None:
                    converged_at = ctx.pc
            prev_digest = digest
            if not validated:
                continue

        # Steady state confirmed: extrapolate as far as every float
        # stays inside its current binade.
        n = info.periods - q
        bound = _jump_bound(clock, dt, live)
        if bound is not None and bound < n:
            n = bound
        for name in _FLOAT_FIELDS:
            d = getattr(delta, name)
            bound = _jump_bound(getattr(counters, name), d, 0.0)
            if bound is not None and bound < n:
                n = bound
        if n < MIN_JUMP:
            # Too close to a binade top (or the trace end) to be worth
            # a relabel; keep interpreting and try again next boundary.
            continue

        time_shift = n * dt
        addr_shift = n * stride
        cache.relabel(addr_shift, time_shift, clock)
        prefetcher.relabel(addr_shift)
        if rb is not None:
            rb.relabel(addr_shift)
        for pipe in pipes:
            pipe.shift(time_shift, clock)
        for name in _INT_FIELDS:
            d = getattr(delta, name)
            if d:
                setattr(counters, name, getattr(counters, name) + n * d)
        for name in _FLOAT_FIELDS:
            d = getattr(delta, name)
            if d:
                setattr(counters, name, getattr(counters, name) + n * d)
        ctx.clock = clock + time_shift
        ctx.pc += n * info.period_ops
        q += n
        skipped += n
        jumps += 1
        tracer.event("sim.fastforward", ctx.clock,
                     periods_skipped=n, op_index=ctx.pc,
                     period_ops=info.period_ops, stride=stride,
                     converged_at_op=converged_at)
        # The skip ends near a binade top; re-validate from scratch so
        # the next jump measures the new binade's rounding.
        prev_clock = ctx.clock
        prev_snap = counters.snapshot()
        prev_dt = prev_delta = prev_lens = prev_digest = None
        streak = 0
        validated = False

    # Aperiodic tail (and anything detection left out).
    ctx.run()
    return _stats(skipped > 0, None if skipped else "never converged",
                  periods_total=info.periods,
                  periods_interpreted=interpreted,
                  periods_skipped=skipped, jumps=jumps,
                  converged_at_op=converged_at,
                  period_ops=info.period_ops, stride=stride)
