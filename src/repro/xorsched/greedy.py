"""Greedy Cauchy-matrix construction (the Cerasure strategy).

Cerasure (Niu et al., ICCD'23) replaces Zerasure's global stochastic
search with a cheap greedy pass: grow the data point set Y one column
at a time, always picking the unused field element whose Cauchy column
(against the fixed parity points X) adds the fewest bitmatrix ones,
then apply row scaling. Deterministic, fast, and usually within a few
percent of annealing — at the cost of a denser decode matrix (the
effect Figure 14 of the paper measures).

A candidate's cost depends only on its own column, so all are scored
in one (pool x m) gather over :func:`~repro.gf.bitmatrix.element_ones`.
"""

from __future__ import annotations

import numpy as np

from repro.gf.arithmetic import GF
from repro.gf.bitmatrix import element_ones
from repro.matrix.cauchy import cauchy_matrix, optimize_cauchy_ones


def greedy_cauchy_points(field: GF, k: int, m: int,
                         candidate_limit: int | None = None) -> tuple[list[int], list[int], np.ndarray]:
    """Greedily pick Cauchy points minimizing incremental bitmatrix ones.

    Parameters
    ----------
    candidate_limit:
        Optionally restrict the per-column candidate pool (Cerasure
        bounds its search for very wide stripes). ``None`` = scan all
        unused elements.

    Returns
    -------
    (x_points, y_points, parity)
        Parity is the row-scaled ``(m, k)`` GF matrix.
    """
    if k + m > field.order:
        raise ValueError(f"k+m={k+m} exceeds field order")
    # Low-valued parity points keep their bitmatrices sparse; Y is then
    # drawn greedily from everything else, scored by the ones of its
    # column normalized by the first entry.
    x = list(range(m))
    pool = np.arange(m, field.order, dtype=field.dtype)
    cols = field.inv(pool[:, None] ^ np.array(x, dtype=field.dtype))
    cost = element_ones(field)[field.div(cols, cols[:, :1])].sum(axis=1)
    y: list[int] = []
    for _ in range(k):
        # argmin: the first cheapest of the first `candidate_limit` unused.
        j = int(np.argmin(cost[:candidate_limit]))
        y.append(int(pool[j]))
        pool, cost = np.delete(pool, j), np.delete(cost, j)
    parity = optimize_cauchy_ones(field, cauchy_matrix(field, x, y))
    return x, y, parity
