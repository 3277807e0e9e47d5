"""The XOR code-construction searches ≡ their scalar reference.

Zerasure's annealer, Cerasure's greedy search and the Cauchy scaling
are NumPy array operations; ``tests/reference_xor_search.py`` keeps
them as scalar loops over field elements. Every output must be equal:
the points, the parity matrix (values and dtype), the energy, the
``converged`` flag and the evaluation count, from the same RNG draws.
Ties are common (many elements share a bit weight), so a search that
took the last minimum instead of the first fails here.
"""

import numpy as np
import pytest

from tests import reference_xor_search as ref
from repro.gf import element_bitmatrix, gf4, gf8, gf16
from repro.gf.bitmatrix import element_ones
from repro.matrix import cauchy_matrix, optimize_cauchy_ones
from repro.xorsched import anneal_cauchy_points, greedy_cauchy_points


def _same_matrix(a, b):
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)


def _check_anneal(field, k, m, **kw):
    got = anneal_cauchy_points(field, k, m, **kw)
    want = ref.anneal_cauchy_points(field, k, m, **kw)
    assert got.x_points == want.x_points
    assert got.y_points == want.y_points
    assert got.energy == want.energy and type(got.energy) is int
    assert got.converged == want.converged
    assert got.evaluations == want.evaluations
    _same_matrix(got.parity, want.parity)


def _check_greedy(field, k, m, candidate_limit=None):
    got = greedy_cauchy_points(field, k, m, candidate_limit=candidate_limit)
    want = ref.greedy_cauchy_points(field, k, m,
                                    candidate_limit=candidate_limit)
    assert got[0] == want[0] and got[1] == want[1]
    _same_matrix(got[2], want[2])


def _random_parities(field, n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 10)))
        yield rng.integers(0, field.order, shape).astype(field.dtype)


# -- the bit-weight table ----------------------------------------------------

@pytest.mark.parametrize("field", [gf4, gf8], ids=["gf4", "gf8"])
def test_element_ones_is_the_bitmatrix_popcount(field):
    assert element_ones(field).tolist() == ref._ones_cache(field).tolist()


def test_element_ones_gf16_sampled_and_read_only():
    ones = element_ones(gf16)
    assert ones.shape == (gf16.order,) and ones.dtype == np.int64
    for e in np.random.default_rng(0).integers(0, gf16.order, 64):
        assert ones[e] == element_bitmatrix(gf16, int(e)).sum()
    assert element_ones(gf16) is ones
    with pytest.raises(ValueError):
        ones[1] = 0


# -- Zerasure's annealer -----------------------------------------------------

@pytest.mark.parametrize("k,m", [(2, 2), (5, 3), (12, 4), (24, 2), (48, 4)])
@pytest.mark.parametrize("seed", [0, 7])
def test_anneal_matches_reference(k, m, seed):
    _check_anneal(gf8, k, m, budget=300, seed=seed)


@pytest.mark.parametrize("kw", [
    dict(budget=2000, plateau=40),            # converges on the plateau
    dict(budget=50, t0=0.5, cooling=0.9),     # cold: rejects uphill moves
    dict(budget=250, coverage_factor=1),
], ids=["plateau", "cold", "coverage"])
def test_anneal_matches_reference_across_schedules(kw):
    _check_anneal(gf8, 6, 3, seed=3, **kw)


def test_anneal_matches_reference_gf4():
    # At k + m = 16 no element is left unused: the search stops at once.
    _check_anneal(gf4, 5, 3, budget=200, seed=1)
    _check_anneal(gf4, 12, 4, budget=200, seed=1)


# -- Cerasure's greedy search ------------------------------------------------

@pytest.mark.parametrize("k", [2, 8, 17, 48])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("candidate_limit", [None, 16, 3])
def test_greedy_matches_reference(k, m, candidate_limit):
    _check_greedy(gf8, k, m, candidate_limit)


def test_greedy_matches_reference_gf4():
    for k, m, limit in ((4, 2, None), (6, 3, 4), (12, 4, None)):
        _check_greedy(gf4, k, m, limit)


# -- Cauchy row/column scaling -----------------------------------------------

@pytest.mark.parametrize("field", [gf4, gf8], ids=["gf4", "gf8"])
def test_optimize_matches_reference_on_random_parities(field):
    for P in _random_parities(field, 25, seed=field.w):
        _same_matrix(optimize_cauchy_ones(field, P),
                     ref.optimize_cauchy_ones(field, P))


def test_optimize_leaves_a_column_with_zero_in_row_0_unscaled():
    P = cauchy_matrix(gf8, range(8, 12), range(8))
    P[0, 2] = P[0, 5] = 0
    P[2, 3] = 0
    got = optimize_cauchy_ones(gf8, P)
    _same_matrix(got, ref.optimize_cauchy_ones(gf8, P))
    assert got[0, 2] == got[0, 5] == 0
    assert np.all(np.delete(got[0], [2, 5]) == 1)


def test_optimize_gf16_takes_the_first_lightest_divisor():
    # The scalar reference needs every GF(2^16) element's bitmatrix
    # (~20 s; the slow copy runs it). Here the divisor is checked against
    # the weights of all 65,535 at once: the first lightest.
    P = cauchy_matrix(gf16, range(3, 5), range(3))
    got = optimize_cauchy_ones(gf16, P)
    row = gf16.div(P[1], P[0])
    divisors = np.arange(1, gf16.order)[:, None]
    weights = element_ones(gf16)[gf16.div(row, divisors)].sum(axis=1).tolist()
    best = 1 + weights.index(min(weights))
    assert got.dtype == P.dtype
    assert got[0].tolist() == [1, 1, 1]
    assert got[1].tolist() == gf16.div(row, best).tolist()


# -- the wide grid (pytest -m slow) ------------------------------------------

@pytest.mark.slow
def test_searches_match_reference_over_a_wide_grid():
    for k in range(2, 65):
        for m in (2, 3, 4):
            for seed in (0, 1):
                _check_anneal(gf8, k, m, seed=seed)
            for limit in (None, 16, 1):
                _check_greedy(gf8, k, m, limit)
    for k, m in ((100, 4), (200, 8), (250, 6)):
        _check_anneal(gf8, k, m, budget=300, seed=2)
        _check_greedy(gf8, k, m)


@pytest.mark.slow
def test_gf16_searches_match_reference():
    P = cauchy_matrix(gf16, range(4, 7), range(4))
    P[0, 1] = 0
    _same_matrix(optimize_cauchy_ones(gf16, P),
                 ref.optimize_cauchy_ones(gf16, P))
    _check_anneal(gf16, 3, 2, budget=40, seed=5)
