"""Bit-level (binary matrix) projection of GF(2^w) elements.

XOR-based erasure coding (Jerasure's Cauchy-Reed-Solomon path, and the
Zerasure/Cerasure libraries the paper compares against) replaces each
field element of a coding matrix by a ``w x w`` binary matrix, turning
GF multiplication into pure XORs on bit-sliced packets. The number of
ones in the resulting bitmatrix is exactly the XOR count of the naive
schedule — the quantity Zerasure/Cerasure minimize.
"""

from __future__ import annotations

import numpy as np

from repro.gf.arithmetic import GF


def element_bitmatrix(field: GF, e: int) -> np.ndarray:
    """Return the ``w x w`` binary matrix of multiplication by ``e``.

    Column ``j`` holds the bits of ``e * alpha^j``; then for any element
    ``v`` with bit-vector ``b``, ``M @ b (mod 2)`` is the bit-vector of
    ``e * v``. Bit 0 is the least-significant bit and occupies row 0.
    """
    w = field.w
    M = np.zeros((w, w), dtype=np.uint8)
    for j in range(w):
        prod = int(field.mul(e, 1 << j))
        for i in range(w):
            M[i, j] = (prod >> i) & 1
    return M


#: Popcount tables built so far, by (w, polynomial); read-only.
_ELEMENT_ONES: dict[tuple[int, int], np.ndarray] = {}


def element_ones(field: GF) -> np.ndarray:
    """``ones[e]`` = popcount of ``element_bitmatrix(field, e)``, the
    summed bits of ``e * 2^j`` over ``j < w``; built once per field on
    first use, shared and read-only."""
    key = (field.w, field.tables.poly)
    ones = _ELEMENT_ONES.get(key)
    if ones is None:
        e = np.arange(field.order, dtype=field.dtype)
        ones = sum(np.bitwise_count(field.mul(e, 1 << j)).astype(np.int64)
                   for j in range(field.w))
        ones.flags.writeable = False
        _ELEMENT_ONES[key] = ones
    return ones


def matrix_to_bitmatrix(field: GF, A: np.ndarray) -> np.ndarray:
    """Expand an ``r x c`` GF matrix into an ``r*w x c*w`` binary matrix.

    This is the encode (or decode) bitmatrix used by the XOR schedule
    machinery in :mod:`repro.xorsched`.
    """
    A = np.asarray(A)
    r, c = A.shape
    w = field.w
    out = np.zeros((r * w, c * w), dtype=np.uint8)
    cache: dict[int, np.ndarray] = {}
    for i in range(r):
        for j in range(c):
            e = int(A[i, j])
            if e not in cache:
                cache[e] = element_bitmatrix(field, e)
            out[i * w : (i + 1) * w, j * w : (j + 1) * w] = cache[e]
    return out


def bitmatrix_xor_count(bitmatrix: np.ndarray) -> int:
    """XOR operations of the naive schedule for this bitmatrix.

    Each output row with ``p`` ones costs ``p - 1`` XORs (first source
    is a copy), so the total is ``popcount - rows_with_any_ones``.
    """
    ones_per_row = bitmatrix.sum(axis=1, dtype=np.int64)
    active = ones_per_row > 0
    return int(ones_per_row[active].sum() - active.sum())
