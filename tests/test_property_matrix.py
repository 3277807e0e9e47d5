"""Property-based tests: GF linear algebra and coding matrices."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gf import gf8
from repro.matrix import (
    cauchy_matrix, gf_invert_matrix, gf_rank, systematic_vandermonde,
)
from repro.matrix.invert import SingularMatrixError


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30)
def test_random_invertible_matrices_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 256, (n, n)).astype(np.uint8)
    try:
        Ainv = gf_invert_matrix(gf8, A)
    except SingularMatrixError:
        assert gf_rank(gf8, A) < n
        return
    I = np.eye(n, dtype=np.uint8)
    assert np.array_equal(gf8.matmul(A, Ainv), I)
    assert np.array_equal(gf8.matmul(Ainv, A), I)


@given(st.integers(min_value=2, max_value=16),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=20)
def test_vandermonde_generator_always_systematic_and_full_rank(k, m):
    G = systematic_vandermonde(gf8, k, m)
    assert np.array_equal(G[:k], np.eye(k, dtype=np.uint8))
    assert gf_rank(gf8, G) == k


@given(st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=25)
def test_cauchy_submatrices_always_invertible(seed, r, c):
    """Every square submatrix of a Cauchy matrix is invertible — the
    property that makes Cauchy generators MDS."""
    rng = np.random.default_rng(seed)
    pts = rng.choice(256, size=r + c, replace=False)
    C = cauchy_matrix(gf8, pts[:r], pts[r:])
    n = min(r, c)
    rows = sorted(rng.choice(r, size=n, replace=False))
    cols = sorted(rng.choice(c, size=n, replace=False))
    sub = C[np.ix_(rows, cols)]
    assert gf_rank(gf8, sub) == n
