"""Unit tests for vectorized GF arithmetic."""

import numpy as np
import pytest

from repro.gf import GF, gf4, gf8, gf16
from repro.gf.tables import _carryless_mul_mod


@pytest.fixture(params=[gf4, gf8, gf16], ids=["gf4", "gf8", "gf16"])
def field(request):
    return request.param


def test_add_is_xor(field):
    a = np.array([1, 2, 3], dtype=field.dtype)
    b = np.array([3, 2, 1], dtype=field.dtype)
    assert np.array_equal(field.add(a, b), a ^ b)


def test_mul_matches_reference(field):
    rng = np.random.default_rng(1)
    a = rng.integers(0, field.order, 50)
    b = rng.integers(0, field.order, 50)
    got = field.mul(a, b)
    want = [_carryless_mul_mod(int(x), int(y), field.tables.poly, field.w)
            for x, y in zip(a, b)]
    assert np.array_equal(got, np.array(want))


def test_mul_broadcasts(field):
    a = np.arange(1, 5, dtype=field.dtype)
    out = field.mul(a[:, None], a[None, :])
    assert out.shape == (4, 4)
    assert out[1, 1] == field.mul(2, 2)


def test_mul_identity_and_zero(field):
    a = np.arange(field.order if field.w <= 8 else 256, dtype=field.dtype)
    assert np.array_equal(field.mul(a, 1), a)
    assert not np.asarray(field.mul(a, 0)).any()


def test_div_inverts_mul(field):
    rng = np.random.default_rng(2)
    a = rng.integers(0, field.order, 30)
    b = rng.integers(1, field.order, 30)
    assert np.array_equal(field.div(field.mul(a, b), b), a.astype(field.dtype))


def test_div_by_zero_raises(field):
    with pytest.raises(ZeroDivisionError):
        field.div(5, 0)


def test_inv(field):
    a = np.arange(1, min(field.order, 300), dtype=field.dtype)
    assert np.all(field.mul(a, field.inv(a)) == 1)


def test_inv_zero_raises(field):
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_pow(field):
    assert field.pow(3, 0) == 1
    assert field.pow(3, 1) == 3
    assert field.pow(3, 2) == field.mul(3, 3)
    assert field.pow(0, 0) == 1
    assert field.pow(0, 5) == 0
    # Fermat: a^(order-1) == 1
    assert field.pow(7 % field.order or 3, field.order - 1) == 1


def test_pow_negative_exponent(field):
    assert field.pow(5 % field.order or 2, -1) == field.inv(5 % field.order or 2)


def test_mul_block_matches_elementwise():
    rng = np.random.default_rng(3)
    block = rng.integers(0, 256, 1024).astype(np.uint8)
    for coef in [0, 1, 2, 7, 255]:
        assert np.array_equal(
            gf8.mul_block(coef, block), gf8.mul(coef, block))


def test_mul_block_w16():
    rng = np.random.default_rng(4)
    block = rng.integers(0, 1 << 16, 128).astype(np.uint32)
    assert np.array_equal(gf16.mul_block(9, block), gf16.mul(9, block))


def test_matmul_against_scalar_loop():
    rng = np.random.default_rng(6)
    A = rng.integers(0, 256, (3, 4)).astype(np.uint8)
    B = rng.integers(0, 256, (4, 5)).astype(np.uint8)
    got = gf8.matmul(A, B)
    want = np.zeros((3, 5), dtype=np.uint8)
    for i in range(3):
        for j in range(5):
            acc = 0
            for t in range(4):
                acc ^= int(gf8.mul(int(A[i, t]), int(B[t, j])))
            want[i, j] = acc
    assert np.array_equal(got, want)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        gf8.matmul(np.zeros((2, 3), np.uint8), np.zeros((4, 2), np.uint8))


def test_matmul_identity():
    I = np.eye(4, dtype=np.uint8)
    B = np.arange(16, dtype=np.uint8).reshape(4, 4)
    assert np.array_equal(gf8.matmul(I, B), B)
