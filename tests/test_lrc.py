"""Unit tests for the LRC codec."""

import numpy as np
import pytest

from repro.codes import LRCCode


def _data(k, blen=32, seed=0):
    return np.random.default_rng(seed).integers(0, 256, (k, blen)).astype(np.uint8)


def test_params_validation():
    with pytest.raises(ValueError):
        LRCCode(6, 2, 4)  # k % l != 0
    with pytest.raises(ValueError):
        LRCCode(6, 2, 0)
    with pytest.raises(ValueError):
        LRCCode(6, 2, 7)


def test_layout_helpers():
    code = LRCCode(8, 2, 2)
    assert code.group_of(0) == 0
    assert code.group_of(7) == 1
    assert code.group_members(1) == [4, 5, 6, 7]
    with pytest.raises(IndexError):
        code.group_of(8)
    with pytest.raises(IndexError):
        code.group_members(2)


def test_encode_shapes_and_local_parity():
    code = LRCCode(6, 2, 3)
    data = _data(6)
    gp, lp = code.encode(data)
    assert gp.shape == (2, 32)
    assert lp.shape == (3, 32)
    for g in range(3):
        want = np.bitwise_xor.reduce(data[code.group_members(g)], axis=0)
        assert np.array_equal(lp[g], want)


def test_global_parity_matches_rs():
    code = LRCCode(6, 2, 3)
    data = _data(6, seed=1)
    gp, _ = code.encode(data)
    assert np.array_equal(gp, code.rs.encode_blocks(data))


def _full_stripe(code, data):
    gp, lp = code.encode(data)
    blocks = {i: data[i] for i in range(code.k)}
    blocks.update({code.k + i: gp[i] for i in range(code.m)})
    blocks.update({code.k + code.m + i: lp[i] for i in range(code.l)})
    return blocks


def test_repair_local_single_erasure():
    code = LRCCode(8, 2, 2)
    data = _data(8, seed=2)
    blocks = _full_stripe(code, data)
    victim = 5
    avail = {i: b for i, b in blocks.items() if i != victim}
    got = code.repair_local(code.group_of(victim), avail)
    assert np.array_equal(got, data[victim])


def test_repair_local_needs_parity():
    code = LRCCode(4, 2, 2)
    data = _data(4, seed=3)
    blocks = _full_stripe(code, data)
    avail = {i: b for i, b in blocks.items() if i not in (0, code.k + code.m)}
    with pytest.raises(ValueError, match="local parity"):
        code.repair_local(0, avail)


def test_repair_local_wrong_erasure_count():
    code = LRCCode(4, 2, 2)
    data = _data(4, seed=4)
    blocks = _full_stripe(code, data)
    avail = {i: b for i, b in blocks.items() if i not in (0, 1)}
    with pytest.raises(ValueError, match="exactly one"):
        code.repair_local(0, avail)


def test_decode_prefers_local():
    code = LRCCode(8, 2, 2)
    data = _data(8, seed=5)
    blocks = _full_stripe(code, data)
    avail = {i: b for i, b in blocks.items() if i != 3}
    out = code.decode(avail, [3])
    assert np.array_equal(out[3], data[3])


def test_decode_global_fallback_two_in_group():
    code = LRCCode(8, 2, 2)
    data = _data(8, seed=6)
    blocks = _full_stripe(code, data)
    erased = [0, 1]  # both in group 0 -> local repair impossible
    avail = {i: b for i, b in blocks.items() if i not in erased}
    out = code.decode(avail, erased)
    for e in erased:
        assert np.array_equal(out[e], data[e])


def test_decode_erased_global_parity():
    code = LRCCode(6, 2, 3)
    data = _data(6, seed=7)
    blocks = _full_stripe(code, data)
    e = code.k  # first global parity
    avail = {i: b for i, b in blocks.items() if i != e}
    out = code.decode(avail, [e])
    assert np.array_equal(out[e], blocks[e])


def test_decode_erased_local_parity():
    code = LRCCode(6, 2, 3)
    data = _data(6, seed=8)
    blocks = _full_stripe(code, data)
    e = code.k + code.m + 1
    avail = {i: b for i, b in blocks.items() if i != e}
    out = code.decode(avail, [e])
    assert np.array_equal(out[e], blocks[e])


def test_decode_mixed_erasures():
    code = LRCCode(8, 2, 2)
    data = _data(8, seed=9)
    blocks = _full_stripe(code, data)
    erased = [2, 6, code.k + code.m]  # one per group (local) + a local parity
    avail = {i: b for i, b in blocks.items() if i not in erased}
    out = code.decode(avail, erased)
    for e in erased:
        assert np.array_equal(out[e], blocks[e])
