"""Log/exp/multiplication tables for GF(2^w).

Tables are generated on first use, once per process (:func:`get_tables`),
from standard primitive polynomials (the same ones Jerasure and ISA-L
use), so every codec in the repo shares one consistent field definition.

The full ``w=8`` multiplication table (256x256 uint8, 64 KiB) is the
work-horse of the vectorized encoder: multiplying an entire data block
by a coefficient ``c`` is a single fancy-index ``MUL[c][block]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Primitive polynomials (with the x^w term included), per word size.
#: These match Jerasure/ISA-L conventions so encodings are comparable
#: against reference vectors.
PRIMITIVE_POLYNOMIALS: dict[int, int] = {
    4: 0x13,      # x^4 + x + 1
    8: 0x11D,     # x^8 + x^4 + x^3 + x^2 + 1
    16: 0x1100B,  # x^16 + x^12 + x^3 + x + 1
}


def _carryless_mul_mod(a: int, b: int, poly: int, w: int) -> int:
    """Schoolbook carry-less multiply of ``a*b`` reduced mod ``poly``.

    Slow scalar reference used only for table construction and as a
    ground-truth oracle in tests.
    """
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a & (1 << w):
            a ^= poly
    return result


@dataclass
class GFTables:
    """Precomputed tables for one GF(2^w) field instance.

    Attributes
    ----------
    w:
        Word size in bits; the field has ``2^w`` elements.
    poly:
        Primitive polynomial used for reduction (x^w term included).
    exp:
        ``exp[i] = alpha^i`` for ``i`` in ``[0, 2*(2^w - 1))`` — doubled
        so ``exp[log[a] + log[b]]`` needs no modulo.
    log:
        ``log[e]`` = discrete log of ``e`` base alpha; ``log[0]`` is a
        sentinel (never read by a correct caller).
    inv:
        Multiplicative inverses; ``inv[0] = 0`` sentinel.
    mul:
        Full multiplication table, shape ``(2^w, 2^w)``; built eagerly
        for w <= 8, lazily (on first access) and only if asked for
        w = 16 it is never built (4 GiB) — ``mul`` stays ``None``.
    """

    w: int
    poly: int
    exp: np.ndarray = field(repr=False)
    log: np.ndarray = field(repr=False)
    inv: np.ndarray = field(repr=False)
    mul: np.ndarray | None = field(repr=False, default=None)

    @property
    def order(self) -> int:
        """Number of field elements, ``2^w``."""
        return 1 << self.w

    @classmethod
    def build(cls, w: int, poly: int | None = None) -> "GFTables":
        """Construct tables for GF(2^w).

        Parameters
        ----------
        w:
            Word size; one of 4, 8, 16 unless a custom ``poly`` is given.
        poly:
            Override primitive polynomial. Defaults to the standard one
            from :data:`PRIMITIVE_POLYNOMIALS`.
        """
        if poly is None:
            try:
                poly = PRIMITIVE_POLYNOMIALS[w]
            except KeyError as exc:
                raise ValueError(
                    f"no default primitive polynomial for w={w}; pass poly="
                ) from exc
        order = 1 << w
        n = order - 1
        dtype = np.uint8 if w <= 8 else np.uint32
        exp = np.zeros(2 * n, dtype=dtype)
        log = np.zeros(order, dtype=np.int32)
        x = 1
        for i in range(n):
            exp[i] = x
            log[x] = i
            x = _carryless_mul_mod(x, 2, poly, w)
        if x != 1:
            raise ValueError(f"polynomial {poly:#x} is not primitive for w={w}")
        exp[n : 2 * n] = exp[:n]
        inv = np.zeros(order, dtype=dtype)
        # a^-1 = alpha^(n - log a)
        idx = np.arange(1, order)
        inv[1:] = exp[(n - log[idx]) % n]
        mul = None
        if w <= 8:
            a = np.arange(order)
            la = log[a]
            mul = np.zeros((order, order), dtype=dtype)
            # mul[a, b] = exp[log a + log b], zero row/col handled after.
            mul[1:, 1:] = exp[la[1:, None] + la[None, 1:]]
        return cls(w=w, poly=poly, exp=exp, log=log, inv=inv, mul=mul)


_CACHE: dict[tuple[int, int | None], GFTables] = {}


def get_tables(w: int, poly: int | None = None) -> GFTables:
    """Return (and memoize) the table set for GF(2^w)."""
    key = (w, poly)
    if key not in _CACHE:
        _CACHE[key] = GFTables.build(w, poly)
    return _CACHE[key]
