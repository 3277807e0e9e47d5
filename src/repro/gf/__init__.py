"""Galois-field arithmetic over GF(2^w).

This package is the arithmetic substrate for every codec in the
reproduction: table-lookup Reed-Solomon (the ISA-L path), XOR/bitmatrix
codes (the Zerasure/Cerasure path), and the LRC layer.

Public API
----------
``GF``            vectorized field arithmetic for w in {4, 8, 16}
``GFTables``      raw log/exp/(mul) tables built from a primitive polynomial
``gf8``           module-level shared GF(2^8) instance (the paper's field)
``element_bitmatrix`` / ``matrix_to_bitmatrix``  bit-level projections
"""

from repro.gf.tables import GFTables, PRIMITIVE_POLYNOMIALS
from repro.gf.arithmetic import GF, gf4, gf8
from repro.gf.bitmatrix import element_bitmatrix, matrix_to_bitmatrix, bitmatrix_xor_count


def __getattr__(name: str):
    # ``gf16`` is built on first access, once, by repro.gf.arithmetic.
    if name == "gf16":
        from repro.gf import arithmetic
        return arithmetic.gf16
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "GF",
    "GFTables",
    "PRIMITIVE_POLYNOMIALS",
    "gf4",
    "gf8",
    "gf16",
    "element_bitmatrix",
    "matrix_to_bitmatrix",
    "bitmatrix_xor_count",
]
