"""Trace op encoding.

Ops are stored as two *parallel arrays* — a ``uint8`` opcode array and
a ``float64`` argument array — rather than a list of ``(opcode, arg)``
tuples. That representation is ~3x smaller, pickles cheaply (the
parallel sweep executor ships traces between processes and the content
cache hashes their raw buffers), and lets the simulator's inner loop
index two flat C arrays instead of chasing tuple pointers:

========  =======================================================
opcode    arg
========  =======================================================
LOAD      byte address (64 B-aligned) of a demand load
STORE     byte address of a 64 B non-temporal store
SWPF      byte address targeted by a software prefetch
COMPUTE   CPU cycles of computation (float)
FENCE     unused (0) — drain posted stores (``sfence``)
========  =======================================================

The tuple view survives for compatibility: ``trace.ops`` is a mutable
sequence proxy yielding ``(opcode, arg)`` tuples that supports
``append``/``extend``/``insert``/slicing/assignment, so existing
callers (and tests) that treat a trace as a list of tuples keep
working unmodified.

Generators build one stripe's *kernel*, op by op, through
:meth:`Trace.add`, which *coalesces consecutive COMPUTE ops* (summing
their cycle counts) — runs of pure compute (common in XOR-schedule traces, where
parity-source program steps emit no loads) collapse into one op before
the simulator ever sees them. :func:`tile` then repeats the kernel once
per stripe with array arithmetic, shifting every address by the
stripe's stride; no per-op Python runs for the other stripes.
"""

from __future__ import annotations

from array import array

import numpy as np

LOAD = 0
STORE = 1
SWPF = 2
COMPUTE = 3
FENCE = 4

_NAMES = {LOAD: "LOAD", STORE: "STORE", SWPF: "SWPF",
          COMPUTE: "COMPUTE", FENCE: "FENCE"}


def op_name(opcode: int) -> str:
    """Human-readable op name (for debugging/reporting)."""
    return _NAMES.get(opcode, f"op{opcode}")


class OpsView:
    """Mutable ``(opcode, arg)`` tuple view over a trace's parallel arrays.

    Supports the list operations trace consumers historically used:
    iteration, ``len``, indexing/slicing, ``append``, ``extend``,
    ``insert`` and equality against tuple lists. Mutations write
    through to the underlying arrays (verbatim — no coalescing).
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace"):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.opcodes)

    def __iter__(self):
        return zip(self._trace.opcodes, self._trace.args)

    def __getitem__(self, index):
        t = self._trace
        if isinstance(index, slice):
            return list(zip(t.opcodes[index], t.args[index]))
        return (t.opcodes[index], t.args[index])

    def __setitem__(self, index, value) -> None:
        t = self._trace
        if isinstance(index, slice):
            pairs = list(value)
            t.opcodes[index] = array("B", (int(op) for op, _ in pairs))
            t.args[index] = array("d", (arg for _, arg in pairs))
            return
        op, arg = value
        t.opcodes[index] = int(op)
        t.args[index] = arg

    def append(self, pair) -> None:
        op, arg = pair
        self._trace.opcodes.append(int(op))
        self._trace.args.append(arg)

    def extend(self, pairs) -> None:
        for op, arg in pairs:
            self._trace.opcodes.append(int(op))
            self._trace.args.append(arg)

    def insert(self, index: int, pair) -> None:
        op, arg = pair
        self._trace.opcodes.insert(index, int(op))
        self._trace.args.insert(index, arg)

    def __eq__(self, other) -> bool:
        if isinstance(other, OpsView):
            other = list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpsView({list(self)!r})"


class Trace:
    """One thread's op stream plus throughput metadata.

    Attributes
    ----------
    opcodes:
        ``array('B')`` of opcodes (one byte per op).
    args:
        ``array('d')`` of op arguments, parallel to ``opcodes``.
        Addresses are exact: float64 represents integers < 2**53 and
        the simulated address space tops out near 2**45.
    data_bytes:
        Application data bytes this trace encodes/decodes — the
        numerator of the throughput the paper reports.
    """

    __slots__ = ("opcodes", "args", "data_bytes")

    def __init__(self, ops=None, data_bytes: int = 0):
        self.opcodes = array("B")
        self.args = array("d")
        self.data_bytes = data_bytes
        if ops is not None:
            for op, arg in ops:
                self.opcodes.append(int(op))
                self.args.append(arg)

    # -- building ---------------------------------------------------------

    def add(self, op: int, arg: float) -> None:
        """Append one op, coalescing runs of consecutive COMPUTE.

        Trace generators emit through this method; a COMPUTE landing
        directly after another COMPUTE folds its cycles into the
        previous op instead of growing the stream.
        """
        opcodes = self.opcodes
        if op == COMPUTE and opcodes and opcodes[-1] == COMPUTE:
            self.args[-1] += arg
            return
        opcodes.append(op)
        self.args.append(arg)

    def extend(self, other: "Trace") -> None:
        """Append another trace (accumulating data bytes).

        Ops concatenate verbatim — no boundary coalescing, because the
        coordinator extends a trace *mid-execution* and the already-
        executed tail must not change under its program counter.
        """
        self.opcodes.extend(other.opcodes)
        self.args.extend(other.args)
        self.data_bytes += other.data_bytes

    # -- tuple-view compatibility ----------------------------------------

    @property
    def ops(self) -> OpsView:
        """Mutable ``(opcode, arg)`` tuple view (see :class:`OpsView`)."""
        return OpsView(self)

    @ops.setter
    def ops(self, pairs) -> None:
        self.opcodes = array("B")
        self.args = array("d")
        for op, arg in pairs:
            self.opcodes.append(int(op))
            self.args.append(arg)

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.opcodes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.opcodes == other.opcodes and self.args == other.args
                and self.data_bytes == other.data_bytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace({len(self)} ops, data_bytes={self.data_bytes})"

    def counts(self) -> dict[str, int]:
        """Op histogram, keyed by op name."""
        out: dict[str, int] = {}
        for op in self.opcodes:
            name = op_name(op)
            out[name] = out.get(name, 0) + 1
        return out

    def content_key(self) -> bytes:
        """Raw bytes identifying this trace's exact content.

        Feeds the content-addressed cache: two traces with equal keys
        simulate identically on equal hardware.
        """
        head = f"trace:v1:{len(self.opcodes)}:{self.data_bytes}:".encode()
        return head + self.opcodes.tobytes() + self.args.tobytes()

    # -- pickling (slots) -------------------------------------------------

    def __getstate__(self):
        return (self.opcodes, self.args, self.data_bytes)

    def __setstate__(self, state):
        self.opcodes, self.args, self.data_bytes = state


def tile(kernel: Trace, stripes: int, stride: int,
         first_stripe: int = 0) -> Trace:
    """Repeat a one-stripe kernel ``stripes`` times.

    ``kernel`` holds stripe 0's ops; copy ``i`` is shifted to stripe
    ``first_stripe + i``: its LOAD/STORE/SWPF addresses gain
    ``(first_stripe + i) * stride`` and its COMPUTE/FENCE args stay
    as they are. This equals emitting every stripe through
    :meth:`Trace.add` because the kernel ends in FENCE (so no COMPUTE
    coalesces across a stripe boundary) and addresses stay below
    2**53 (so the float adds are exact). ``data_bytes`` scales with
    the copies.
    """
    if not kernel.opcodes or kernel.opcodes[-1] != FENCE:
        raise ValueError("a tiled kernel must be non-empty and end in FENCE")
    out = Trace(data_bytes=kernel.data_bytes * stripes)
    out.opcodes = kernel.opcodes * stripes
    out.args = kernel.args * stripes
    # LOAD, STORE and SWPF are opcodes 0-2: the address-carrying ops.
    cols = np.flatnonzero(np.frombuffer(kernel.opcodes, np.uint8) <= SWPF)
    shift = np.arange(first_stripe, first_stripe + stripes,
                      dtype=np.float64) * stride
    args = np.frombuffer(out.args, np.float64).reshape(stripes, -1)
    args[:, cols] += shift[:, None]
    return out
