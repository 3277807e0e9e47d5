"""Shared machinery for XOR-bitmatrix library facades.

Zerasure and Cerasure differ in how they *search* for the parity
matrix; everything downstream — bitmatrix expansion, CSE scheduling,
bit-sliced functional execution, decode-matrix construction — is
common and lives here. Search results and schedules are memoized per
code geometry because benchmark sweeps re-instantiate libraries.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.gf.arithmetic import GF, gf8
from repro.gf.bitmatrix import matrix_to_bitmatrix
from repro.matrix.invert import DecodeMatrices
from repro.xorsched.optimize import cse_optimize
from repro.xorsched.schedule import XorSchedule, encode_bitmatrix, naive_schedule


class BitmatrixCode:
    """A systematic XOR code defined by an (m, k) GF parity matrix.

    Provides bit-exact encode/decode plus the encode/decode XOR
    schedules the performance model replays. Decode schedules use the
    *naive* schedule: as the paper notes (§5.4), the decode matrix is
    derived by inversion and its complexity cannot be pre-optimized.
    """

    def __init__(self, k: int, m: int, parity: np.ndarray,
                 optimize_encode: bool = True):
        self.field = gf8
        self.k, self.m = k, m
        self.parity = np.asarray(parity, dtype=self.field.dtype)
        if self.parity.shape != (m, k):
            raise ValueError(f"parity shape {self.parity.shape} != ({m},{k})")
        self.generator = np.vstack(
            [np.eye(k, dtype=self.field.dtype), self.parity])
        self._encode_schedule: XorSchedule | None = None
        self._optimize_encode = optimize_encode
        #: GF rows rebuilding ``erased`` from ``survivors[:k]``.
        self.decode_matrix = DecodeMatrices(self.field, self.generator, k)

    @property
    def encode_schedule(self) -> XorSchedule:
        """CSE-optimized (or naive) encode schedule, built lazily."""
        if self._encode_schedule is None:
            bm = matrix_to_bitmatrix(self.field, self.parity)
            if self._optimize_encode:
                self._encode_schedule = cse_optimize(bm, self.k, self.m, self.field.w)
            else:
                self._encode_schedule = naive_schedule(bm, self.k, self.m, self.field.w)
        return self._encode_schedule

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Bit-sliced schedule execution — byte-identical to GF matmul."""
        data = np.asarray(data, dtype=np.uint8)
        bm = matrix_to_bitmatrix(self.field, self.parity)
        return encode_bitmatrix(self.field, bm, data,
                                schedule=self.encode_schedule)

    def decode(self, available: dict[int, np.ndarray], erased) -> dict[int, np.ndarray]:
        """Recover erased blocks (functional, via the decode matrix)."""
        erased = list(erased)
        if len(erased) > self.m:
            raise ValueError(f"cannot repair {len(erased)} erasures with m={self.m}")
        survivors = sorted(available)
        if len(survivors) < self.k:
            raise ValueError(f"need >= k={self.k} survivors")
        use = survivors[: self.k]
        D = self.decode_matrix(use, erased)
        bm = matrix_to_bitmatrix(self.field, D)
        src = np.vstack([np.asarray(available[i], dtype=np.uint8) for i in use])
        out = encode_bitmatrix(self.field, bm, src)
        return {e: out[i] for i, e in enumerate(erased)}

    def decode_schedule(self, erasures: int) -> XorSchedule:
        """Naive XOR schedule for rebuilding the first ``erasures`` data
        blocks from the canonical survivor set (remaining data + parity).
        """
        erased = list(range(erasures))
        survivors = [i for i in range(self.k + self.m) if i not in erased]
        D = self.decode_matrix(survivors[: self.k], erased)
        bm = matrix_to_bitmatrix(self.field, D)
        return naive_schedule(bm, self.k, erasures, self.field.w)


def lrc_extended_parity(field: GF, parity: np.ndarray, l: int) -> np.ndarray:
    """Append ``l`` local-XOR parity rows to an ``(m, k)`` parity matrix.

    Local parities in LRC(k, m, l) are plain XORs of contiguous data
    groups — coefficient-1 rows over the field — so an XOR-bitmatrix
    library encodes LRC by simply extending its parity matrix.
    """
    m, k = parity.shape
    if l < 1 or k % l:
        raise ValueError(f"need l | k, got k={k} l={l}")
    group = k // l
    local = np.zeros((l, k), dtype=parity.dtype)
    for g in range(l):
        local[g, g * group:(g + 1) * group] = 1
    return np.vstack([parity, local])


def build_lrc_schedule(code: BitmatrixCode, l: int) -> XorSchedule:
    """CSE schedule producing ``m`` global + ``l`` local parities."""
    ext = lrc_extended_parity(code.field, code.parity, l)
    bm = matrix_to_bitmatrix(code.field, ext)
    return cse_optimize(bm, code.k, code.m + l, code.field.w)


def lrc_xor_trace(code: BitmatrixCode, cache: dict, wl, hw, thread: int):
    """LRC trace for an XOR library: encode m+l parity outputs.

    ``cache`` is the facade's per-instance schedule cache.
    """
    from repro.trace import xor_schedule_trace
    l = wl.lrc_l
    key = ("lrc", l)
    sched = cache.get(key)
    if sched is None:
        sched = build_lrc_schedule(code, l)
        cache[key] = sched
    wl2 = wl.with_(m=code.m + l, lrc_l=None)
    return xor_schedule_trace(wl2, hw.cpu, sched, thread=thread)


@lru_cache(maxsize=None)
def cached_group_schedule(code_key: tuple, cols: tuple[int, ...]) -> XorSchedule:
    """Memoized CSE schedule for a column subgroup (decompose path).

    ``code_key`` is ``(name, k, m)`` plus the parity bytes, so distinct
    searches don't collide.
    """
    name, k, m, parity_bytes = code_key
    parity = np.frombuffer(parity_bytes, dtype=np.uint8).reshape(m, k)
    sub = parity[:, list(cols)]
    bm = matrix_to_bitmatrix(gf8, sub)
    return cse_optimize(bm, len(cols), m, 8)
