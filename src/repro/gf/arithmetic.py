"""Vectorized GF(2^w) arithmetic.

The :class:`GF` class exposes NumPy-native field operations. All
element-wise operations accept scalars or arrays and broadcast like
ordinary NumPy ufuncs. The hot path for coding is :meth:`GF.matmul`,
which forms every block product of a coefficient matrix with a stack of
data blocks in one table gather and XOR-reduces them in one pass — the
Python analogue of ISA-L's ``ec_encode_data``.
"""

from __future__ import annotations

import numpy as np

from repro.gf.tables import GFTables, get_tables

#: Columns of ``B`` per gather in :meth:`GF.matmul`. It bounds one
#: gather's index and product temporaries to ``r * c * MATMUL_SLICE``
#: entries however wide ``B`` is.
MATMUL_SLICE = 4096


class GF:
    """A GF(2^w) field with vectorized NumPy operations.

    Parameters
    ----------
    w:
        Word size in bits (4, 8 or 16 by default polynomial).
    poly:
        Optional primitive-polynomial override.

    Notes
    -----
    Addition and subtraction in characteristic-2 fields are both XOR;
    only :meth:`add` is provided.
    """

    def __init__(self, w: int, poly: int | None = None):
        self.tables: GFTables = get_tables(w, poly)
        self.w = w
        self.order = self.tables.order
        self.dtype = np.uint8 if w <= 8 else np.uint32

    # -- scalar/array element-wise ops ---------------------------------

    def add(self, a, b):
        """Field addition (XOR). Broadcasts."""
        return np.bitwise_xor(a, b)

    def mul(self, a, b):
        """Field multiplication. Broadcasts over arrays.

        Uses the dense table for w<=8 and log/exp otherwise.
        """
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if self.tables.mul is not None:
            return self.tables.mul[a, b]
        a, b = np.broadcast_arrays(a, b)
        out = np.zeros(a.shape, dtype=self.dtype)
        nz = (a != 0) & (b != 0)
        la = self.tables.log[a[nz]]
        lb = self.tables.log[b[nz]]
        out[nz] = self.tables.exp[la + lb]
        return out if out.shape else out[()]

    def div(self, a, b):
        """Field division ``a / b``. Raises ZeroDivisionError on b=0."""
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if np.any(b == 0):
            raise ZeroDivisionError("division by zero in GF(2^w)")
        return self.mul(a, self.tables.inv[b])

    def inv(self, a):
        """Multiplicative inverse. Raises ZeroDivisionError on 0."""
        a = np.asarray(a, dtype=self.dtype)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no inverse in GF(2^w)")
        return self.tables.inv[a]

    def pow(self, a, e: int):
        """Raise field element(s) ``a`` to integer power ``e`` (e >= 0)."""
        a = np.asarray(a, dtype=self.dtype)
        if e < 0:
            return self.pow(self.inv(a), -e)
        n = self.order - 1
        out = np.ones_like(a)
        zero = a == 0
        la = np.zeros_like(self.tables.log[a])
        nz = ~zero
        la[nz] = self.tables.log[a[nz]]
        out_nz = (
            self.tables.exp[(la[nz].astype(np.int64) * (e % n)) % n]
            if e else np.ones(nz.sum(), self.dtype)
        )
        out[nz] = out_nz
        if e:
            out[zero] = 0
        return out if out.shape else out[()]

    # -- block (bulk) ops ----------------------------------------------

    def mul_block(self, coef: int, block: np.ndarray) -> np.ndarray:
        """Multiply every symbol of ``block`` by scalar ``coef``.

        This is the vectorized analogue of the SIMD GF-multiply kernel:
        for w=8 it is one row-gather from the 64 KiB table.
        """
        block = np.asarray(block, dtype=self.dtype)
        if coef == 0:
            return np.zeros_like(block)
        if coef == 1:
            return block.copy()
        if self.tables.mul is not None:
            return self.tables.mul[coef][block]
        out = np.zeros_like(block)
        nz = block != 0
        out[nz] = self.tables.exp[self.tables.log[coef] + self.tables.log[block[nz]]]
        return out

    # -- linear algebra --------------------------------------------------

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Matrix product over the field.

        ``A`` is (r, c), ``B`` is (c, n); returns (r, n). Each slice of
        at most :data:`MATMUL_SLICE` columns of ``B`` costs one gather,
        forming all r*c block products at once, and one XOR reduction
        over c. Accepts lists and any strided view; never writes to its
        inputs.
        """
        A = np.asarray(A, dtype=self.dtype)
        B = np.asarray(B, dtype=self.dtype)
        r, c = A.shape
        c2, n = B.shape
        if c != c2:
            raise ValueError(f"shape mismatch: {A.shape} @ {B.shape}")
        out = np.empty((r, n), dtype=self.dtype)
        t = self.tables
        if t.mul is not None:
            # Row i of ``rows`` is the table rows of A[i, :] laid end to
            # end, so A[i, j] * b sits at column (j << w) | b.
            rows = t.mul[A].reshape(r, c << self.w)
            col = (np.arange(c, dtype=np.intp) << self.w)[:, None]
        else:
            log_a = t.log[A][:, :, None]
            zero_a = (A == 0)[:, :, None]
        for s in range(0, n, MATMUL_SLICE):
            b = B[:, s:s + MATMUL_SLICE]
            if t.mul is not None:
                prod = np.take(rows, col | b, axis=1)
            else:
                prod = np.take(t.exp, log_a + t.log[b])
                prod[zero_a | (b == 0)] = 0
            np.bitwise_xor.reduce(prod, axis=1,
                                  out=out[:, s:s + MATMUL_SLICE])
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GF(2^{self.w}, poly={self.tables.poly:#x})"


#: Shared field instances. ``gf8`` is the paper's evaluation field.
gf4 = GF(4)
gf8 = GF(8)


def __getattr__(name: str):
    # ``gf16`` is built on first access: its tables take a 65,535-step
    # loop, and no codec here uses GF(2^16).
    if name == "gf16":
        gf = globals()["gf16"] = GF(16)
        return gf
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
