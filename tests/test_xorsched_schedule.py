"""Unit tests for bit-slicing and XOR schedule execution."""

import numpy as np
import pytest

from repro.gf import gf8, matrix_to_bitmatrix
from repro.codes import RSCode
from repro.xorsched import (
    XorSchedule,
    naive_schedule,
    bitslice,
    unbitslice,
    encode_bitmatrix,
)


def test_bitslice_roundtrip():
    rng = np.random.default_rng(0)
    block = rng.integers(0, 256, 64).astype(np.uint8)
    assert np.array_equal(unbitslice(bitslice(block)), block)


def test_bitslice_shape_and_bit_semantics():
    block = np.array([0b00000001] * 8 + [0b10000000] * 8, dtype=np.uint8)
    p = bitslice(block)
    assert p.shape == (8, 2)
    assert p[0, 0] == 0xFF and p[0, 1] == 0x00   # bit 0 set in first 8 symbols
    assert p[7, 0] == 0x00 and p[7, 1] == 0xFF   # bit 7 set in last 8 symbols


def test_bitslice_validates():
    with pytest.raises(ValueError):
        bitslice(np.zeros(10, np.uint8))
    with pytest.raises(NotImplementedError):
        bitslice(np.zeros(16, np.uint8), w=4)
    with pytest.raises(NotImplementedError):
        unbitslice(np.zeros((4, 2), np.uint8), w=4)


def test_naive_schedule_counts():
    code = RSCode(4, 2, matrix="cauchy")
    bm = matrix_to_bitmatrix(gf8, code.parity_rows)
    sched = naive_schedule(bm, 4, 2, 8)
    ones = int(bm.sum())
    rows = int((bm.sum(axis=1) > 0).sum())
    assert sched.xor_count == ones - rows
    assert len(sched.ops) == ones


def test_naive_schedule_shape_validation():
    with pytest.raises(ValueError):
        naive_schedule(np.zeros((16, 32), np.uint8), k=4, m=3, w=8)


def test_schedule_execute_wrong_packets():
    sched = XorSchedule(k=2, m=1, w=8)
    with pytest.raises(ValueError):
        sched.execute(np.zeros((8, 4), np.uint8))


@pytest.mark.parametrize("k,m", [(2, 1), (4, 2), (6, 3)])
def test_bitmatrix_encode_equals_table_encode(k, m):
    """The central equivalence: XOR-scheduled encode == table-lookup RS."""
    code = RSCode(k, m, matrix="cauchy")
    rng = np.random.default_rng(k + m)
    data = rng.integers(0, 256, (k, 64)).astype(np.uint8)
    bm = matrix_to_bitmatrix(gf8, code.parity_rows)
    got = encode_bitmatrix(gf8, bm, data)
    want = code.encode_blocks(data)
    assert np.array_equal(got, want)


def test_bitmatrix_encode_vandermonde_generator():
    code = RSCode(5, 2, matrix="vandermonde")
    rng = np.random.default_rng(9)
    data = rng.integers(0, 256, (5, 32)).astype(np.uint8)
    bm = matrix_to_bitmatrix(gf8, code.parity_rows)
    assert np.array_equal(encode_bitmatrix(gf8, bm, data), code.encode_blocks(data))


def test_gf16_bitslice_roundtrip():
    rng = np.random.default_rng(5)
    block = rng.integers(0, 1 << 16, 64).astype(np.uint32)
    assert np.array_equal(unbitslice(bitslice(block, 16), 16), block)


def test_gf16_bitmatrix_encode_equals_table_encode():
    from repro.gf import gf16
    code = RSCode(4, 2, field=gf16)
    rng = np.random.default_rng(6)
    data = rng.integers(0, 1 << 16, (4, 16)).astype(np.uint32)
    bm = matrix_to_bitmatrix(gf16, code.parity_rows)
    got = encode_bitmatrix(gf16, bm, data)
    assert np.array_equal(got, code.encode_blocks(data))


def test_bitslice_rejects_unsupported_width():
    with pytest.raises(NotImplementedError):
        bitslice(np.zeros(16, np.uint8), w=4)
