"""Unit tests for coding-matrix construction and GF linear algebra."""

import itertools

import numpy as np
import pytest

from repro.gf import gf4, gf8, gf16, element_bitmatrix
from repro.matrix import (
    vandermonde_matrix,
    systematic_vandermonde,
    cauchy_matrix,
    systematic_cauchy,
    optimize_cauchy_ones,
    gf_invert_matrix,
    gf_solve,
    gf_rank,
)
from repro.matrix.invert import SingularMatrixError


def test_vandermonde_entries():
    V = vandermonde_matrix(gf8, 4, 3)
    assert V[0, 0] == 1 and V[0, 1] == 0
    assert V[2, 0] == 1
    assert V[2, 1] == 2
    assert V[2, 2] == gf8.mul(2, 2)


def _vandermonde_oracle(field, rows, cols):
    """The scalar double loop: V[i, j] = i ** j with 0 ** 0 = 1."""
    V = np.zeros((rows, cols), dtype=field.dtype)
    for i in range(rows):
        for j in range(cols):
            V[i, j] = field.pow(i, j) if (i or not j) else 0
    V[0, 0] = 1
    return V


def test_vandermonde_matches_scalar_oracle_gf8():
    # V[i, j] does not depend on the shape, so every geometry's oracle
    # is a corner of the largest one.
    oracle = _vandermonde_oracle(gf8, 72, 72)
    for m in range(9):
        for k in range(1, 73 - m):
            assert np.array_equal(vandermonde_matrix(gf8, k + m, k),
                                  oracle[:k + m, :k]), (k, m)


@pytest.mark.parametrize("field,rows,cols", [
    (gf4, 6, 4), (gf4, 16, 12), (gf4, 1, 1),
    (gf16, 12, 8), (gf16, 40, 32), (gf16, 300, 3)])
def test_vandermonde_matches_scalar_oracle_other_fields(field, rows, cols):
    V = vandermonde_matrix(field, rows, cols)
    assert V.dtype == field.dtype
    assert np.array_equal(V, _vandermonde_oracle(field, rows, cols))


def test_vandermonde_too_many_rows():
    with pytest.raises(ValueError):
        vandermonde_matrix(gf8, 257, 3)


def test_systematic_vandermonde_identity_top():
    G = systematic_vandermonde(gf8, 6, 3)
    assert G.shape == (9, 6)
    assert np.array_equal(G[:6], np.eye(6, dtype=np.uint8))
    assert G[6:].any()


@pytest.mark.parametrize("k,m", [(4, 2), (6, 3), (12, 4)])
def test_systematic_vandermonde_mds(k, m):
    """Any k rows of the generator must be invertible (MDS property)."""
    G = systematic_vandermonde(gf8, k, m)
    rows = list(range(k + m))
    rng = np.random.default_rng(0)
    combos = list(itertools.combinations(rows, k))
    picks = rng.choice(len(combos), size=min(20, len(combos)), replace=False)
    for idx in picks:
        sub = G[list(combos[idx])]
        assert gf_rank(gf8, sub) == k


@pytest.mark.parametrize("build", [systematic_vandermonde, systematic_cauchy])
def test_systematic_generator_is_built_once_and_read_only(build):
    G = build(gf8, 10, 4)
    assert build(gf8, 10, 4) is G
    assert build(gf8, 10, 3) is not G
    assert build(gf16, 10, 4) is not G
    with pytest.raises(ValueError):
        G[0, 0] = 7


def test_rs_parameter_bound():
    with pytest.raises(ValueError):
        systematic_vandermonde(gf8, 250, 10)


def test_cauchy_matrix_values():
    C = cauchy_matrix(gf8, [4, 5], [0, 1, 2])
    for i, x in enumerate([4, 5]):
        for j, y in enumerate([0, 1, 2]):
            assert C[i, j] == gf8.inv(x ^ y)


def test_cauchy_rejects_overlap_and_dups():
    with pytest.raises(ValueError, match="disjoint"):
        cauchy_matrix(gf8, [1, 2], [2, 3])
    with pytest.raises(ValueError, match="distinct"):
        cauchy_matrix(gf8, [1, 1], [2, 3])


@pytest.mark.parametrize("k,m", [(4, 2), (8, 4)])
def test_systematic_cauchy_mds(k, m):
    G = systematic_cauchy(gf8, k, m)
    assert np.array_equal(G[:k], np.eye(k, dtype=np.uint8))
    # Spot-check a handful of k-row subsets.
    rng = np.random.default_rng(1)
    for _ in range(15):
        rows = sorted(rng.choice(k + m, size=k, replace=False))
        assert gf_rank(gf8, G[rows]) == k


def test_optimize_cauchy_reduces_or_keeps_ones():
    P = cauchy_matrix(gf8, range(8, 12), range(8))
    before = sum(int(element_bitmatrix(gf8, int(e)).sum()) for e in P.ravel())
    P2 = optimize_cauchy_ones(gf8, P)
    after = sum(int(element_bitmatrix(gf8, int(e)).sum()) for e in P2.ravel())
    assert after <= before
    # Row 0 becomes all ones after column normalization.
    assert np.all(P2[0] == 1)


def test_optimized_cauchy_still_mds():
    k, m = 6, 3
    P = optimize_cauchy_ones(gf8, cauchy_matrix(gf8, range(k, k + m), range(k)))
    G = np.vstack([np.eye(k, dtype=np.uint8), P])
    rng = np.random.default_rng(2)
    for _ in range(15):
        rows = sorted(rng.choice(k + m, size=k, replace=False))
        assert gf_rank(gf8, G[rows]) == k


def test_invert_roundtrip():
    rng = np.random.default_rng(3)
    for n in [1, 2, 5, 8]:
        while True:
            A = rng.integers(0, 256, (n, n)).astype(np.uint8)
            if gf_rank(gf8, A) == n:
                break
        Ainv = gf_invert_matrix(gf8, A)
        assert np.array_equal(gf8.matmul(A, Ainv), np.eye(n, dtype=np.uint8))
        assert np.array_equal(gf8.matmul(Ainv, A), np.eye(n, dtype=np.uint8))


def test_invert_singular_raises():
    A = np.array([[1, 2], [1, 2]], dtype=np.uint8)
    with pytest.raises(SingularMatrixError):
        gf_invert_matrix(gf8, A)


def test_invert_non_square_raises():
    with pytest.raises(ValueError, match="square"):
        gf_invert_matrix(gf8, np.zeros((2, 3), np.uint8))


def test_solve_vector_and_matrix():
    A = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    x = np.array([7, 9], dtype=np.uint8)
    b = gf8.matmul(A, x[:, None])[:, 0]
    assert np.array_equal(gf_solve(gf8, A, b), x)
    X = np.array([[7, 1], [9, 2]], dtype=np.uint8)
    B = gf8.matmul(A, X)
    assert np.array_equal(gf_solve(gf8, A, B), X)


def test_rank():
    assert gf_rank(gf8, np.eye(3, dtype=np.uint8)) == 3
    assert gf_rank(gf8, np.zeros((3, 3), np.uint8)) == 0
    A = np.array([[1, 2, 3], [2, 4, 6]], dtype=np.uint8)  # row2 = 2*row1
    assert gf_rank(gf8, A) == 1
