"""Vandermonde-based generator matrices.

``systematic_vandermonde`` mirrors ISA-L's ``gf_gen_rs_matrix``: build a
(k+m) x k Vandermonde matrix and row-reduce so the top k x k block is
the identity — data blocks pass through unchanged and the bottom m rows
are the parity coefficients. Any k rows of the result are linearly
independent, which is what makes RS(k+m, k) MDS.
"""

from __future__ import annotations

import numpy as np

from repro.gf.arithmetic import GF
from repro.matrix.invert import gf_invert_matrix


def vandermonde_matrix(field: GF, rows: int, cols: int) -> np.ndarray:
    """Plain Vandermonde matrix ``V[i, j] = i ** j`` over the field.

    Row 0 is ``[1, 0, 0, ...]`` by the convention ``0**0 = 1``.
    """
    if rows > field.order:
        raise ValueError(
            f"cannot build {rows} distinct evaluation points in GF(2^{field.w})"
        )
    V = np.empty((rows, cols), dtype=field.dtype)
    points = np.arange(rows, dtype=field.dtype)
    for j in range(cols):
        # GF.pow maps 0**0 to 1 and 0**j (j > 0) to 0.
        V[:, j] = field.pow(points, j)
    return V


#: Generators built so far, by (w, polynomial, k, m); read-only.
_GENERATORS: dict[tuple, np.ndarray] = {}


def systematic_vandermonde(field: GF, k: int, m: int) -> np.ndarray:
    """Systematic (k+m) x k generator matrix.

    The top k rows are the identity; the bottom m rows generate parity.
    Equivalent in spirit to ISA-L ``gf_gen_rs_matrix(a, k+m, k)``.
    Built once per field and (k, m): the returned matrix is shared and
    read-only.
    """
    if k + m > field.order:
        raise ValueError(
            f"RS({k + m},{k}) does not fit in GF(2^{field.w}) "
            f"(need k+m <= {field.order})"
        )
    key = (field.w, field.tables.poly, k, m)
    G = _GENERATORS.get(key)
    if G is None:
        V = vandermonde_matrix(field, k + m, k)
        G = field.matmul(V, gf_invert_matrix(field, V[:k]))
        G.flags.writeable = False
        _GENERATORS[key] = G
    return G
