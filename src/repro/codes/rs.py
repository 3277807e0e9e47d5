"""Reed-Solomon RS(k+m, k) codec over GF(2^w).

The table-lookup encode path (one pass over each data block, multiply-
accumulate into parity accumulators) mirrors ISA-L's
``ec_encode_data``; decode inverts the surviving rows of the generator
matrix, exactly like ``gf_gen_decode_matrix`` in ISA-L's examples.
"""

from __future__ import annotations

import numpy as np

from repro.gf.arithmetic import GF, gf8
from repro.matrix.invert import DecodeMatrices
from repro.matrix.vandermonde import systematic_vandermonde
from repro.matrix.cauchy import systematic_cauchy
from repro.codes.stripe import Stripe


class RSCode:
    """Systematic Reed-Solomon code.

    Parameters
    ----------
    k:
        Number of data blocks per stripe.
    m:
        Number of parity blocks per stripe.
    field:
        GF instance; defaults to GF(2^8) (the paper's field).
    matrix:
        ``"vandermonde"`` (ISA-L's default) or ``"cauchy"``.

    Examples
    --------
    >>> code = RSCode(4, 2)
    >>> data = np.arange(4 * 8, dtype=np.uint8).reshape(4, 8)
    >>> stripe = code.encode(data)
    >>> survivors = stripe.erase([0, 5])
    >>> recovered = code.decode(survivors, erased=[0, 5])
    >>> bool(np.array_equal(recovered[0], data[0]))
    True
    """

    def __init__(self, k: int, m: int, field: GF | None = None,
                 matrix: str = "vandermonde"):
        if k < 1 or m < 1:
            raise ValueError(f"k and m must be positive, got k={k} m={m}")
        self.field = field or gf8
        if k + m > self.field.order:
            raise ValueError(
                f"RS({k + m},{k}) needs k+m <= {self.field.order} in GF(2^{self.field.w})"
            )
        self.k = k
        self.m = m
        self.matrix_kind = matrix
        if matrix == "vandermonde":
            self.generator = systematic_vandermonde(self.field, k, m)
        elif matrix == "cauchy":
            self.generator = systematic_cauchy(self.field, k, m)
        else:
            raise ValueError(f"unknown matrix kind {matrix!r}")
        #: The m x k parity-coefficient block (bottom of the generator).
        self.parity_rows = self.generator[k:]
        #: ``decode_matrix(survivors, erased)``: memoized decode rows.
        self.decode_matrix = DecodeMatrices(self.field, self.generator, k)

    # -- encode ---------------------------------------------------------

    def encode(self, data: np.ndarray) -> Stripe:
        """Encode ``(k, block_len)`` data into a full stripe.

        Single pass over each data block: ``parity[i] ^= g[i,j] * data[j]``.
        """
        data = np.asarray(data, dtype=self.field.dtype)
        if data.ndim != 2 or data.shape[0] != self.k:
            raise ValueError(f"expected (k={self.k}, block_len) data, got {data.shape}")
        parity = self.field.matmul(self.parity_rows, data)
        return Stripe(data=data, parity=parity)

    def encode_blocks(self, data: np.ndarray) -> np.ndarray:
        """Return only the parity matrix for ``(k, block_len)`` data."""
        return self.encode(data).parity

    def update_parity(self, parity: np.ndarray, index: int,
                      old_block: np.ndarray, new_block: np.ndarray) -> np.ndarray:
        """Incremental parity update after overwriting one data block.

        Uses RS linearity: ``p' = p + g[:, index] * (old ^ new)``. This
        is the delta-update path PM stores use for small writes.
        """
        if not 0 <= index < self.k:
            raise IndexError(f"data block index {index} out of range")
        delta = np.bitwise_xor(
            np.asarray(old_block, dtype=self.field.dtype),
            np.asarray(new_block, dtype=self.field.dtype),
        )
        out = np.array(parity, dtype=self.field.dtype, copy=True)
        out ^= self.field.matmul(self.parity_rows[:, index:index + 1],
                                 delta[None, :])
        return out

    # -- decode ---------------------------------------------------------

    def decode(self, available: dict[int, np.ndarray], erased) -> dict[int, np.ndarray]:
        """Recover the ``erased`` blocks from any >= k surviving blocks.

        Parameters
        ----------
        available:
            Mapping stripe-global index -> block array.
        erased:
            Iterable of stripe-global indices to rebuild.

        Returns
        -------
        dict mapping each erased index to its reconstructed block.
        """
        erased = list(erased)
        if len(erased) > self.m:
            raise ValueError(
                f"cannot repair {len(erased)} erasures with m={self.m}")
        survivors = sorted(available)
        if len(survivors) < self.k:
            raise ValueError(
                f"need at least k={self.k} surviving blocks, have {len(survivors)}")
        use = survivors[: self.k]
        D = self.decode_matrix(use, erased)
        src = np.vstack([available[i] for i in use])
        out = self.field.matmul(D, src)
        return {e: out[i] for i, e in enumerate(erased)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RSCode(k={self.k}, m={self.m}, matrix={self.matrix_kind!r})"
