"""Cauchy generator matrices and bit-weight optimization.

Cauchy matrices ``C[i, j] = 1 / (x_i + y_j)`` are MDS for any disjoint
point sets, and are the canonical starting point for XOR-based codes:
the XOR cost of a code is the popcount of its bitmatrix, which depends
on the choice of ``x``/``y`` points. ``optimize_cauchy_ones`` performs
the classic column/row scaling that Jerasure calls "improving" a Cauchy
matrix, and is the seed for Zerasure's annealing and Cerasure's greedy
search in :mod:`repro.xorsched`.
"""

from __future__ import annotations

import numpy as np

from repro.gf.arithmetic import GF
from repro.gf.bitmatrix import element_bitmatrix


def cauchy_matrix(field: GF, x_points, y_points) -> np.ndarray:
    """Cauchy matrix ``C[i, j] = (x_i + y_j)^-1`` over the field.

    Point sets must be disjoint and each internally distinct.
    """
    x = np.asarray(list(x_points), dtype=field.dtype)
    y = np.asarray(list(y_points), dtype=field.dtype)
    if len(set(x.tolist())) != len(x) or len(set(y.tolist())) != len(y):
        raise ValueError("Cauchy points must be distinct")
    if set(x.tolist()) & set(y.tolist()):
        raise ValueError("Cauchy x/y point sets must be disjoint")
    sums = np.bitwise_xor(x[:, None], y[None, :])
    return field.inv(sums)


#: Generators built so far, by (w, polynomial, k, m); read-only.
_GENERATORS: dict[tuple, np.ndarray] = {}


def systematic_cauchy(field: GF, k: int, m: int) -> np.ndarray:
    """Systematic (k+m) x k generator: identity on top, Cauchy parity rows.

    Points are ``x = {k..k+m-1}``, ``y = {0..k-1}`` (Jerasure's
    ``cauchy_original_coding_matrix`` convention). Built once per field
    and (k, m): the returned matrix is shared and read-only.
    """
    if k + m > field.order:
        raise ValueError(f"k+m={k + m} exceeds field order {field.order}")
    key = (field.w, field.tables.poly, k, m)
    G = _GENERATORS.get(key)
    if G is None:
        G = np.zeros((k + m, k), dtype=field.dtype)
        G[np.arange(k), np.arange(k)] = 1
        G[k:] = cauchy_matrix(field, range(k, k + m), range(k))
        G.flags.writeable = False
        _GENERATORS[key] = G
    return G


def _element_ones(field: GF, e: int, cache: dict[int, int]) -> int:
    if e not in cache:
        cache[e] = int(element_bitmatrix(field, e).sum())
    return cache[e]


def optimize_cauchy_ones(field: GF, parity: np.ndarray) -> np.ndarray:
    """Reduce total bitmatrix ones of a Cauchy parity block by scaling.

    Dividing any row (or column) by a nonzero constant preserves the
    MDS property. We first normalize each column by its first entry,
    then greedily rescale each row by the divisor minimizing that row's
    bit weight — Jerasure's ``cauchy_xy_coding_matrix`` improvement.
    """
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
