"""The RS codec's block kernel and its decode-matrix memo.

``GF.matmul`` forms every block product in one gather per column
slice; the scalar triple loop below, built from ``GF.mul``, is the
reference it must equal. ``DecodeMatrices`` remembers one read-only
matrix per erasure pattern; a remembered matrix must equal a rebuilt
one and still decode.
"""

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.codes.rs import RSCode
from repro.gf.arithmetic import MATMUL_SLICE, gf4, gf8, gf16
from repro.matrix.invert import DECODE_MEMO_SIZE, gf_invert_matrix

FIELDS = [gf4, gf8, gf16]
WIDTHS = [0, 1, 7, 8, 9, MATMUL_SLICE - 1, MATMUL_SLICE + 1]
LAYOUTS = ["contiguous", "transposed", "strided", "list"]


def oracle_matmul(field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Scalar triple loop over Python ints: out[i][j] = XOR_l A[i][l]*B[l][j]."""
    (r, c), n = A.shape, B.shape[1]
    A, B = A.tolist(), B.tolist()
    products = {}

    def mul(a, b):
        if (a, b) not in products:
            products[a, b] = int(field.mul(a, b))
        return products[a, b]

    out = np.zeros((r, n), dtype=field.dtype)
    for i in range(r):
        for j in range(n):
            acc = 0
            for l in range(c):
                acc ^= mul(A[i][l], B[l][j])
            out[i, j] = acc
    return out


def _layout(M: np.ndarray, layout: str):
    """``M`` in the requested memory layout (same values)."""
    if layout == "transposed":
        return np.ascontiguousarray(M.T).T
    if layout == "strided":
        big = np.zeros((2 * M.shape[0], 3 * M.shape[1]), dtype=M.dtype)
        big[::2, ::3] = M
        return big[::2, ::3]
    if layout == "list":
        return M.tolist()
    return M


@st.composite
def operands(draw, field):
    """(A, B) with A (r, c) and B (c, n), plus the layout to pass."""
    r = draw(st.integers(0, 6))
    c = draw(st.integers(0, 6))
    n = draw(st.sampled_from(WIDTHS))
    layout = draw(st.sampled_from(LAYOUTS))
    # A nested list cannot express an empty dimension's partner shape.
    assume(layout != "list" or (r and c))
    elem = st.integers(0, field.order - 1)
    A = np.array(draw(st.lists(elem, min_size=r * c, max_size=r * c)),
                 dtype=field.dtype).reshape(r, c)
    # B can span a column slice: draw a palette, fill from a seeded rng.
    palette = np.array(draw(st.lists(elem, min_size=1, max_size=16)),
                       dtype=field.dtype)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = palette[rng.integers(0, len(palette), (c, n))]
    return A, B, layout


def _check_matmul(field, A, B, layout):
    want = oracle_matmul(field, A, B)
    a_in, b_in = _layout(A, layout), _layout(B, layout)
    got = field.matmul(a_in, b_in)
    assert got.dtype == field.dtype
    assert got.shape == (A.shape[0], B.shape[1])
    assert np.array_equal(got, want)
    # Inputs are read, never written.
    assert np.array_equal(np.asarray(a_in), A)
    assert np.array_equal(np.asarray(b_in), B)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"gf{f.w}")
@given(data=st.data())
def test_matmul_matches_scalar_oracle(field, data):
    _check_matmul(field, *data.draw(operands(field)))


@pytest.mark.slow
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"gf{f.w}")
@settings(max_examples=2000)
@given(data=st.data())
def test_matmul_matches_scalar_oracle_many_examples(field, data):
    _check_matmul(field, *data.draw(operands(field)))


def test_matmul_spans_slices_with_distinct_columns():
    # Every column differs, so a column written to the wrong slice
    # position shows up.
    rng = np.random.default_rng(7)
    A = rng.integers(0, 256, (4, 8)).astype(np.uint8)
    B = rng.integers(0, 256, (8, 2 * MATMUL_SLICE + 3)).astype(np.uint8)
    assert np.array_equal(gf8.matmul(A, B), oracle_matmul(gf8, A, B))


# -- decode matrices ----------------------------------------------------


def _reference_rows(code, survivors, erased):
    """Invert the survivors' rows; re-encode the rows of erased parity."""
    inv = gf_invert_matrix(code.field, code.generator[survivors[: code.k]])
    return np.array([
        inv[e] if e < code.k
        else code.field.matmul(code.generator[e][None, :], inv)[0]
        for e in erased], dtype=code.field.dtype).reshape(-1, code.k)


def _patterns(k, m):
    for count in range(m + 1):
        for erased in combinations(range(k + m), count):
            survivors = [i for i in range(k + m) if i not in erased]
            yield survivors, list(erased)


def test_decode_memo_warm_equals_cold_for_every_pattern():
    code = RSCode(8, 4)
    cold = {tuple(e): code.decode_matrix(s, e) for s, e in _patterns(8, 4)}
    assert len(cold) == 794
    for survivors, erased in _patterns(8, 4):
        warm = code.decode_matrix(survivors, erased)
        assert warm is cold[tuple(erased)]
        assert np.array_equal(warm, _reference_rows(code, survivors, erased))


def test_decode_memo_entries_are_read_only():
    code = RSCode(8, 4)
    rows = code.decode_matrix(list(range(2, 12)), [0, 9])
    with pytest.raises(ValueError):
        rows[0, 0] ^= 1
    assert np.array_equal(code.decode_matrix(list(range(2, 12)), [0, 9]),
                          _reference_rows(code, list(range(2, 12)), [0, 9]))


def test_decode_recovers_data_for_every_pattern():
    code = RSCode(8, 4)
    rng = np.random.default_rng(11)
    data = rng.integers(0, 256, (8, 32)).astype(np.uint8)
    blocks = np.vstack([data, code.encode(data).parity])
    for _ in range(2):  # cold, then every matrix from the memo
        for survivors, erased in _patterns(8, 4):
            out = code.decode({i: blocks[i] for i in survivors}, erased)
            for e in erased:
                assert np.array_equal(out[e], blocks[e])


def test_decode_memo_is_bounded():
    code = RSCode(8, 4)
    keys = [([i for i in range(12) if i not in p], list(p))
            for p in permutations(range(12), 3)]
    assert len(keys) > DECODE_MEMO_SIZE
    first = code.decode_matrix(*keys[0])
    for survivors, erased in keys:
        code.decode_matrix(survivors, erased)
    assert len(code.decode_matrix._memo) == DECODE_MEMO_SIZE
    again = code.decode_matrix(*keys[0])
    assert again is not first and np.array_equal(again, first)

