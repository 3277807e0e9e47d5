"""Reference XOR code-construction searches: scalar loops.

These are Zerasure's annealer, Cerasure's greedy search and the Cauchy
row/column scaling as they stood before they became NumPy array
operations: one field element, one column or one divisor at a time,
with the bitmatrix popcount of each element built from
:func:`element_bitmatrix`. They are the oracle
``tests/test_xor_search_oracle.py`` pins the package's searches to,
with ``==`` on every output. Keep them as they are.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.gf.arithmetic import GF
from repro.gf.bitmatrix import element_bitmatrix
from repro.matrix.cauchy import cauchy_matrix
from repro.xorsched.anneal import AnnealResult


def _ones_cache(field: GF) -> np.ndarray:
    """Bit weight of each field element's w x w bitmatrix."""
    return np.array(
        [int(element_bitmatrix(field, e).sum()) for e in range(field.order)],
        dtype=np.int64,
    )


def _energy(field: GF, ones: np.ndarray, x: list[int], y: list[int]) -> tuple[int, np.ndarray]:
    P = cauchy_matrix(field, x, y)
    # Column normalization (divide by row-0 entry) is free and always helps.
    for j in range(P.shape[1]):
        d = int(P[0, j])
        if d not in (0, 1):
            P[:, j] = field.div(P[:, j], d)
    return int(ones[P].sum()), P


def anneal_cauchy_points(field: GF, k: int, m: int, *,
                         budget: int = 1500,
                         t0: float = 30.0,
                         cooling: float = 0.995,
                         plateau: int = 150,
                         coverage_factor: int = 40,
                         seed: int = 0) -> AnnealResult:
    """Search Cauchy point sets minimizing bitmatrix ones."""
    if k + m > field.order:
        raise ValueError(f"k+m={k+m} exceeds field order")
    rng = random.Random(seed)
    ones = _ones_cache(field)
    y = list(range(k))
    x = list(range(k, k + m))
    energy, parity = _energy(field, ones, x, y)
    best = AnnealResult(list(x), list(y), parity, energy, False, 1)
    temp = t0
    since_improve = 0
    evals = 1
    while evals < budget and since_improve < plateau:
        # Move: swap one point (from x or y) for an unused field element.
        used = set(x) | set(y)
        candidates = [e for e in range(field.order) if e not in used]
        if not candidates:
            break
        side, idx = (x, rng.randrange(m)) if rng.random() < 0.5 else (y, rng.randrange(k))
        old = side[idx]
        side[idx] = rng.choice(candidates)
        new_energy, new_parity = _energy(field, ones, x, y)
        evals += 1
        delta = new_energy - energy
        if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-9)):
            energy = new_energy
            if energy < best.energy:
                best = AnnealResult(list(x), list(y), new_parity, energy, False, evals)
                since_improve = 0
            else:
                since_improve += 1
        else:
            side[idx] = old
            since_improve += 1
        temp *= cooling
    best.converged = (since_improve >= plateau
                      and coverage_factor * (k + m) <= budget)
    best.evaluations = evals
    best.parity = optimize_cauchy_ones(field, best.parity)
    best.energy = int(ones[best.parity].sum())
    return best


def greedy_cauchy_points(field: GF, k: int, m: int,
                         candidate_limit: int | None = None) -> tuple[list[int], list[int], np.ndarray]:
    """Greedily pick Cauchy points minimizing incremental bitmatrix ones."""
    if k + m > field.order:
        raise ValueError(f"k+m={k+m} exceeds field order")
    ones = np.array(
        [int(element_bitmatrix(field, e).sum()) for e in range(field.order)],
        dtype=np.int64,
    )
    x = list(range(m))
    y_pool = [e for e in range(field.order) if e not in set(x)]
    y: list[int] = []
    xs = np.array(x, dtype=field.dtype)
    for _ in range(k):
        pool = [e for e in y_pool if e not in y]
        if candidate_limit is not None:
            pool = pool[:candidate_limit]
        best_e, best_cost = None, None
        for e in pool:
            col = field.inv(np.bitwise_xor(xs, field.dtype(e)))
            # Normalize column by its first entry (free scaling).
            d = int(col[0])
            if d not in (0, 1):
                col = field.div(col, d)
            cost = int(ones[col].sum())
            if best_cost is None or cost < best_cost:
                best_e, best_cost = e, cost
        y.append(best_e)
    parity = cauchy_matrix(field, x, y)
    for j in range(k):
        d = int(parity[0, j])
        if d not in (0, 1):
            parity[:, j] = field.div(parity[:, j], d)
    parity = optimize_cauchy_ones(field, parity)
    return x, y, parity


def _element_ones(field: GF, e: int, cache: dict[int, int]) -> int:
    if e not in cache:
        cache[e] = int(element_bitmatrix(field, e).sum())
    return cache[e]


def optimize_cauchy_ones(field: GF, parity: np.ndarray) -> np.ndarray:
    """Reduce total bitmatrix ones of a Cauchy parity block by scaling."""
    P = np.array(parity, dtype=field.dtype, copy=True)
    m, k = P.shape
    cache: dict[int, int] = {}
    # Column scaling: make row 0 all ones.
    for j in range(k):
        d = int(P[0, j])
        if d not in (0, 1):
            P[:, j] = field.div(P[:, j], d)
    # Greedy row scaling.
    for i in range(1, m):
        best_div, best_w = 1, sum(
            _element_ones(field, int(e), cache) for e in P[i]
        )
        for d in range(2, field.order):
            row = field.div(P[i], d)
            w = sum(_element_ones(field, int(e), cache) for e in row)
            if w < best_w:
                best_div, best_w = d, w
        if best_div != 1:
            P[i] = field.div(P[i], best_div)
    return P
