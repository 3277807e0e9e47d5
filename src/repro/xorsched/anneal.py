"""Simulated-annealing Cauchy-matrix search (the Zerasure strategy).

Zerasure (Zhou & Tian, FAST'19) searches the space of Cauchy point sets
(X for parity rows, Y for data columns) to minimize the XOR cost of the
resulting bitmatrix, then applies scheduling. We reproduce that with a
classic Metropolis annealer whose energy is the total bitmatrix ones of
the column-normalized Cauchy matrix.

The paper notes that for wide stripes (k > 32) "Zerasure's encoding
matrix search space is too large for its search algorithm to converge";
we reproduce this honestly with a fixed evaluation budget — the result
carries a ``converged`` flag and wide stripes exhaust the budget while
still improving.

An evaluation is two gathers and a sum over the shared
:func:`~repro.gf.bitmatrix.element_ones` table; moves draw from a
sorted list of unused elements kept up to date, not rebuilt.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass

import numpy as np

from repro.gf.arithmetic import GF
from repro.gf.bitmatrix import element_ones
from repro.matrix.cauchy import optimize_cauchy_ones


@dataclass
class AnnealResult:
    """Outcome of the annealing search.

    Attributes
    ----------
    x_points, y_points:
        Best point sets found.
    parity:
        The ``(m, k)`` GF parity matrix for those points.
    energy:
        Total bitmatrix ones of ``parity`` (lower = fewer XORs).
    converged:
        False when the evaluation budget ran out while the search was
        still finding improvements (the wide-stripe failure mode).
    evaluations:
        Number of candidate matrices evaluated.
    """

    x_points: list[int]
    y_points: list[int]
    parity: np.ndarray
    energy: int
    converged: bool
    evaluations: int


def _energy(field: GF, ones: np.ndarray, x: list[int], y: list[int]) -> tuple[int, np.ndarray]:
    # Cauchy matrix (points disjoint by construction), each column
    # divided by its row-0 entry: free scaling that always helps.
    t = field.tables
    P = t.inv[np.bitwise_xor.outer(np.array(x, field.dtype),
                                   np.array(y, field.dtype))]
    P = field.div(P, P[0]) if t.mul is None else t.mul[P, t.inv[P[0]]]
    return int(ones[P].sum()), P


def anneal_cauchy_points(field: GF, k: int, m: int, *,
                         budget: int = 1500,
                         t0: float = 30.0,
                         cooling: float = 0.995,
                         plateau: int = 150,
                         coverage_factor: int = 40,
                         seed: int = 0) -> AnnealResult:
    """Search Cauchy point sets minimizing bitmatrix ones.

    Parameters
    ----------
    budget:
        Maximum candidate evaluations (the FAST'19 search is similarly
        budgeted; wide stripes exhaust it before plateauing).
    plateau:
        Consecutive non-improving evaluations that count as converged.
    coverage_factor:
        A search is only *trusted* (converged) when the budget allows at
        least ``coverage_factor * (k + m)`` evaluations — the search
        space grows combinatorially with the stripe width, which is why
        wide stripes (k > ~32 at the default budget) report
        non-convergence, matching the paper's missing Zerasure results.
    """
    if k + m > field.order:
        raise ValueError(f"k+m={k+m} exceeds field order")
    rng = random.Random(seed)
    ones = element_ones(field)
    y = list(range(k))
    x = list(range(k, k + m))
    unused = list(range(k + m, field.order))  # kept sorted
    energy, parity = _energy(field, ones, x, y)
    best = AnnealResult(list(x), list(y), parity, energy, False, 1)
    temp = t0
    since_improve = 0
    evals = 1
    while evals < budget and since_improve < plateau:
        # Move: swap one point (from x or y) for an unused field element.
        if not unused:
            break
        side, idx = (x, rng.randrange(m)) if rng.random() < 0.5 else (y, rng.randrange(k))
        old = side[idx]
        side[idx] = new = rng.choice(unused)
        new_energy, new_parity = _energy(field, ones, x, y)
        evals += 1
        delta = new_energy - energy
        if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-9)):
            energy = new_energy
            unused.remove(new)
            bisect.insort(unused, old)
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
    # Final deterministic polish: the same row-scaling normalization the
    # greedy search applies (dividing a parity row by a constant
    # preserves MDS and often sheds bitmatrix ones).
    best.parity = optimize_cauchy_ones(field, best.parity)
    best.energy = int(ones[best.parity].sum())
    return best
