"""Gaussian elimination, inversion and rank over GF(2^w).

Decoding a stripe with erasures reduces to inverting the surviving
k x k submatrix of the generator — this module is that primitive, and
:class:`DecodeMatrices` builds each erasure pattern's decode matrix
from it once.
"""

from __future__ import annotations

import numpy as np

from repro.gf.arithmetic import GF


class SingularMatrixError(ValueError):
    """Raised when a matrix that must be invertible is singular."""


def _eliminate(field: GF, M: np.ndarray) -> tuple[np.ndarray, int]:
    """Row-reduce ``M`` in place (returns the matrix and its rank)."""
    rows, cols = M.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot = None
        for r in range(rank, rows):
            if M[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            M[[rank, pivot]] = M[[pivot, rank]]
        inv = int(field.inv(int(M[rank, col])))
        M[rank] = field.mul(M[rank], inv)
        for r in range(rows):
            if r != rank and M[r, col]:
                M[r] ^= field.mul(int(M[r, col]), M[rank])
        rank += 1
    return M, rank


def gf_rank(field: GF, A: np.ndarray) -> int:
    """Rank of ``A`` over the field."""
    M = np.array(A, dtype=field.dtype, copy=True)
    _, rank = _eliminate(field, M)
    return rank


def gf_invert_matrix(field: GF, A: np.ndarray) -> np.ndarray:
    """Invert square matrix ``A`` over GF(2^w).

    Raises
    ------
    SingularMatrixError
        If ``A`` is singular.
    """
    A = np.asarray(A, dtype=field.dtype)
    n, n2 = A.shape
    if n != n2:
        raise ValueError(f"matrix must be square, got {A.shape}")
    aug = np.zeros((n, 2 * n), dtype=field.dtype)
    aug[:, :n] = A
    aug[np.arange(n), n + np.arange(n)] = 1
    aug, rank = _eliminate(field, aug)
    if rank < n or not np.array_equal(
        aug[:, :n], np.eye(n, dtype=field.dtype)
    ):
        raise SingularMatrixError("matrix is singular over GF(2^w)")
    return aug[:, n:].copy()


def gf_solve(field: GF, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A @ x = b`` over the field (b may be a matrix of columns)."""
    Ainv = gf_invert_matrix(field, A)
    b = np.asarray(b, dtype=field.dtype)
    if b.ndim == 1:
        return field.matmul(Ainv, b[:, None])[:, 0]
    return field.matmul(Ainv, b)


#: Erasure patterns a :class:`DecodeMatrices` remembers; RS(12,8) has
#: 793 patterns of 1 to 4 erasures.
DECODE_MEMO_SIZE = 1024


class DecodeMatrices:
    """Decode matrices of one systematic code, built once per pattern.

    ``generator`` is the ``(k + m, k)`` generator, identity on top.
    Called with stripe-global ``survivors`` and ``erased`` indices, it
    returns the read-only ``(len(erased), k)`` rows that rebuild
    ``erased`` from ``survivors[:k]`` (ISA-L's ``gf_gen_decode_matrix``).
    Keyed by ``(tuple(survivors[:k]), tuple(erased))``; past
    :data:`DECODE_MEMO_SIZE` entries the oldest is dropped.
    """

    def __init__(self, field: GF, generator: np.ndarray, k: int):
        self.field, self.generator, self.k = field, generator, k
        self._memo: dict[tuple, np.ndarray] = {}

    def __call__(self, survivors, erased) -> np.ndarray:
        key = (tuple(survivors[: self.k]), tuple(erased))
        rows = self._memo.get(key)
        if rows is None:
            inv = gf_invert_matrix(self.field, self.generator[list(key[0])])
            # Generator row e < k is unit vector e, so one product gives
            # inv[e] for lost data and the re-encoded row for lost parity.
            rows = self.field.matmul(self.generator[list(key[1])], inv)
            rows.flags.writeable = False
            if len(self._memo) >= DECODE_MEMO_SIZE:
                del self._memo[next(iter(self._memo))]
            self._memo[key] = rows
        return rows
