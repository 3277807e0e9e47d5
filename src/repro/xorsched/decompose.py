"""Wide-stripe decomposition (Cerasure / ISA-L-D strategy).

Encoding RS(k, m) with k beyond the hardware stream-prefetcher's
tracking capacity (~32 streams) disables prefetching entirely. The
*decompose* workaround splits the k data columns into groups of at most
``group_size`` and encodes each group as a partial parity, XOR-folding
partials into the final parity:

    p_i = sum_j g[i, j] d_j = XOR over groups ( sum_{j in group} g[i, j] d_j )

The win: each pass touches few streams, so the prefetcher re-engages.
The cost (measured by Fig. 10/13/17 of the paper): the parity blocks
are re-read and re-written once per group — amplified write traffic and
"parity reloading" — which the trace generators reproduce.
"""

from __future__ import annotations

import numpy as np

from repro.gf.arithmetic import GF


def decompose_generator(parity_rows: np.ndarray, group_size: int) -> list[tuple[list[int], np.ndarray]]:
    """Split an ``(m, k)`` parity matrix into column groups.

    Returns a list of ``(column_indices, submatrix)`` pairs covering all
    k columns in order; every group has at most ``group_size`` columns.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    parity_rows = np.asarray(parity_rows)
    k = parity_rows.shape[1]
    groups = []
    for start in range(0, k, group_size):
        cols = list(range(start, min(start + group_size, k)))
        groups.append((cols, parity_rows[:, cols]))
    return groups


def encode_decomposed(field: GF, parity_rows: np.ndarray, data: np.ndarray,
                      group_size: int) -> np.ndarray:
    """Encode by group-wise partial parities (functionally identical).

    Verifiable invariant: the result equals the direct single-pass
    encode for every group size.
    """
    data = np.asarray(data, dtype=field.dtype)
    m = parity_rows.shape[0]
    parity = np.zeros((m, data.shape[1]), dtype=field.dtype)
    for cols, sub in decompose_generator(parity_rows, group_size):
        # Each group re-loads `parity` to fold in its partial product;
        # the performance model charges that re-load per group.
        parity ^= field.matmul(sub, data[cols])
    return parity
