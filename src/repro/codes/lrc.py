"""Locally Repairable Codes LRC(k, m, l) (Azure-style).

``k`` data blocks are split into ``l`` local groups; each group gets one
XOR local parity, and ``m`` global RS parities cover all data. Single
erasures repair locally (reading only the group), matching the paper's
§4.1.2 "Other Coding Tasks" discussion: LRC encoding still reads all
``k`` data blocks, so its load bottleneck is the same as RS — plus
extra stores for the local parities (the effect Figure 16 measures).
"""

from __future__ import annotations

import numpy as np

from repro.codes.rs import RSCode


class LRCCode:
    """LRC(k, m, l): k data, m global parities, l local XOR parities.

    Block index layout (stripe-global):
    ``0..k-1`` data, ``k..k+m-1`` global parity, ``k+m..k+m+l-1`` local
    parity (one per group, groups are contiguous runs of data blocks).
    """

    def __init__(self, k: int, m: int, l: int):
        if l < 1 or l > k:
            raise ValueError(f"need 1 <= l <= k, got l={l} k={k}")
        if k % l:
            raise ValueError(f"k={k} must divide evenly into l={l} groups")
        self.k, self.m, self.l = k, m, l
        self.group_size = k // l
        self.rs = RSCode(k, m)

    def group_of(self, data_index: int) -> int:
        """Local group that data block ``data_index`` belongs to."""
        if not 0 <= data_index < self.k:
            raise IndexError(f"data index {data_index} out of range")
        return data_index // self.group_size

    def group_members(self, group: int) -> list[int]:
        """Data block indices of one local group."""
        if not 0 <= group < self.l:
            raise IndexError(f"group {group} out of range")
        start = group * self.group_size
        return list(range(start, start + self.group_size))

    def encode(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Encode data into ``(global_parity, local_parity)`` matrices.

        ``data`` is ``(k, block_len)``; returns ``(m, block_len)`` and
        ``(l, block_len)`` arrays.
        """
        data = np.asarray(data, dtype=np.uint8)
        if data.shape[0] != self.k:
            raise ValueError(f"expected k={self.k} data blocks, got {data.shape[0]}")
        global_parity = self.rs.encode_blocks(data)
        local_parity = np.bitwise_xor.reduce(
            data.reshape(self.l, self.group_size, data.shape[1]), axis=1)
        return global_parity, local_parity

    def repair_local(self, group: int, available: dict[int, np.ndarray]) -> np.ndarray:
        """Repair one erased block of ``group`` using only that group.

        ``available`` maps stripe-global indices to blocks and must
        contain all but one of the group's members plus (or including)
        the group's local parity at index ``k + m + group``.
        """
        members = self.group_members(group)
        lp_index = self.k + self.m + group
        needed = [i for i in members if i in available]
        if lp_index not in available:
            raise ValueError(f"local parity block {lp_index} unavailable")
        if len(needed) != len(members) - 1:
            raise ValueError("local repair needs exactly one erasure in the group")
        acc = np.array(available[lp_index], dtype=np.uint8, copy=True)
        for i in needed:
            acc ^= available[i]
        return acc

    def decode(self, available: dict[int, np.ndarray], erased) -> dict[int, np.ndarray]:
        """Repair erasures, preferring local repair when possible.

        Falls back to global RS decoding for multi-erasure groups or
        erased global parities. Local parities are re-encoded last.
        """
        erased = list(erased)
        out: dict[int, np.ndarray] = {}
        work = dict(available)
        # Pass 1: local repairs of singly-erased data blocks.
        remaining = []
        for e in sorted(erased):
            if e < self.k:
                group = self.group_of(e)
                members = self.group_members(e // self.group_size)
                missing = [i for i in members if i not in work]
                if missing == [e] and (self.k + self.m + group) in work:
                    out[e] = self.repair_local(group, work)
                    work[e] = out[e]
                    continue
            remaining.append(e)
        # Pass 2: global repairs through RS.
        rs_remaining = [e for e in remaining if e < self.k + self.m]
        if rs_remaining:
            rs_avail = {i: b for i, b in work.items() if i < self.k + self.m}
            recovered = self.rs.decode(rs_avail, rs_remaining)
            out.update(recovered)
            work.update(recovered)
        # Pass 3: rebuild erased local parities from (now complete) data.
        for e in remaining:
            if e >= self.k + self.m:
                g = e - self.k - self.m
                members = self.group_members(g)
                if any(i not in work for i in members):
                    raise ValueError("cannot rebuild local parity: data missing")
                acc = np.zeros_like(work[members[0]])
                for i in members:
                    acc ^= work[i]
                out[e] = acc
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LRCCode(k={self.k}, m={self.m}, l={self.l})"
