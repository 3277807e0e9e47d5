"""XOR schedules and bit-sliced execution.

A GF(2^w) coding matrix expands to a binary *bitmatrix* (see
:mod:`repro.gf.bitmatrix`); each output bit-row is the XOR of the input
bit-rows selected by its ones. At block granularity, a bit-row becomes
a *packet*: the bit-sliced transposition of a data block, so that XORing
whole packets performs the bit-level arithmetic on every symbol of the
block at once. This is exactly Jerasure/Zerasure/Cerasure's execution
model, and why those libraries re-read data packets many times per
block — the memory-access signature the paper measures on PM.

Packet id convention
--------------------
``0 .. k*w-1``              data packets (block-major: block j, bit b -> j*w+b)
``k*w .. (k+m)*w - 1``      parity packets
``(k+m)*w ..``              temporaries introduced by CSE optimization
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gf.arithmetic import GF


# -- bit-slicing -------------------------------------------------------


def bitslice(block: np.ndarray, w: int = 8) -> np.ndarray:
    """Transpose a symbol block into ``w`` bit-packed packets.

    ``block`` has L symbols (uint8 for w=8, uint16/uint32 for w=16,
    L % 8 == 0); the result is ``(w, L // 8)`` uint8 where packet ``b``
    packs bit ``b`` (LSB-first) of every symbol.
    """
    if w not in (8, 16):
        raise NotImplementedError("bit-sliced execution implemented for w=8/16")
    block = np.asarray(block)
    if block.ndim != 1 or block.size % 8:
        raise ValueError("block must be 1-D with length divisible by 8")
    nbytes = w // 8
    as_bytes = np.ascontiguousarray(
        block.astype(f"<u{nbytes}")
    ).view(np.uint8).reshape(-1, nbytes)
    # bits[s, byte, 7-i] = bit i of byte `byte` of symbol s
    bits = np.unpackbits(as_bytes, axis=1).reshape(block.size, w // 8, 8)
    out = np.empty((w, block.size // 8), dtype=np.uint8)
    for b in range(w):
        out[b] = np.packbits(bits[:, b // 8, 7 - (b % 8)])
    return out


def unbitslice(packets: np.ndarray, w: int = 8) -> np.ndarray:
    """Inverse of :func:`bitslice`: packets ``(w, L//8)`` -> block ``(L,)``."""
    if w not in (8, 16):
        raise NotImplementedError("bit-sliced execution implemented for w=8/16")
    packets = np.asarray(packets, dtype=np.uint8)
    nsym = packets.shape[1] * 8
    bits = np.zeros((nsym, w // 8, 8), dtype=np.uint8)
    for b in range(w):
        bits[:, b // 8, 7 - (b % 8)] = np.unpackbits(packets[b])
    by = np.packbits(bits.reshape(nsym, -1), axis=1)
    if w == 8:
        return by.reshape(nsym)
    return by.view("<u2").reshape(nsym).astype(np.uint32)


# -- schedules ---------------------------------------------------------


@dataclass
class XorSchedule:
    """An executable XOR program.

    Attributes
    ----------
    k, m, w:
        Code geometry.
    ops:
        List of ``(opcode, dst, src)`` with opcode ``"copy"`` or
        ``"xor"``; packet ids follow the module convention.
    num_temps:
        Number of temporary packets the program uses.
    """

    k: int
    m: int
    w: int
    ops: list[tuple[str, int, int]] = field(default_factory=list)
    num_temps: int = 0

    @property
    def xor_count(self) -> int:
        """Number of XOR (not copy) operations — the libraries' cost metric."""
        return sum(1 for op, _, _ in self.ops if op == "xor")

    def execute(self, data_packets: np.ndarray) -> np.ndarray:
        """Run the program on bit-sliced data.

        ``data_packets`` is ``(k*w, plen)``; returns parity packets
        ``(m*w, plen)``.
        """
        kw, plen = data_packets.shape
        if kw != self.k * self.w:
            raise ValueError(f"expected {self.k * self.w} data packets, got {kw}")
        n_out = self.m * self.w
        buf = np.zeros((kw + n_out + self.num_temps, plen), dtype=np.uint8)
        buf[:kw] = data_packets
        for op, dst, src in self.ops:
            if op == "copy":
                buf[dst] = buf[src]
            elif op == "xor":
                np.bitwise_xor(buf[dst], buf[src], out=buf[dst])
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown opcode {op!r}")
        return buf[kw : kw + n_out]


def naive_schedule(bitmatrix: np.ndarray, k: int, m: int, w: int) -> XorSchedule:
    """Straight-line schedule: each output row = copy + XORs of its ones."""
    mw, kw = bitmatrix.shape
    if mw != m * w or kw != k * w:
        raise ValueError(
            f"bitmatrix shape {bitmatrix.shape} does not match (m*w={m*w}, k*w={k*w})")
    sched = XorSchedule(k=k, m=m, w=w)
    for r in range(mw):
        dst = kw + r
        srcs = np.nonzero(bitmatrix[r])[0]
        first = True
        for c in srcs:
            sched.ops.append(("copy" if first else "xor", dst, int(c)))
            first = False
    return sched


def encode_bitmatrix(field: GF, parity_bitmatrix: np.ndarray,
                     data: np.ndarray,
                     schedule: XorSchedule | None = None) -> np.ndarray:
    """Encode ``(k, L)`` data via a bitmatrix (or a prepared schedule).

    Returns ``(m, L)`` parity, byte-identical to table-lookup RS with
    the same generator. Convenience wrapper: bit-slices the data, runs
    the schedule, un-slices the parity.
    """
    data = np.asarray(data, dtype=field.dtype)
    k = data.shape[0]
    w = field.w
    if schedule is None:
        m = parity_bitmatrix.shape[0] // w
        schedule = naive_schedule(parity_bitmatrix, k, m, w)
    packets = np.vstack([bitslice(blk, w) for blk in data])
    out = schedule.execute(packets)
    m = schedule.m
    return np.vstack([unbitslice(out[i * w : (i + 1) * w], w)[None, :]
                      for i in range(m)])
