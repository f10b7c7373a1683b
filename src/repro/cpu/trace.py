"""Program trace representation.

A trace is a sequence of memory operations, each annotated with:

- ``gap`` — the number of non-memory instructions retired since the
  previous memory operation (controls memory intensity / MPKI),
- ``pc`` — the program counter of the memory instruction (the signature
  input for PC-based prefetchers),
- ``addr`` — the byte address touched,
- ``flags`` — :data:`FLAG_WRITE` for stores, :data:`FLAG_DEP` for loads
  whose address depends on the previous load (pointer chasing); dependent
  loads cannot overlap with their producer in the core model.

Traces are held as parallel numpy arrays for compact generation and fast
iteration.  They live in memory only: the engine memoizes each one in
the process and rebuilds it from its seed rather than storing it, and
:mod:`repro.cpu.trace_io` writes and reads a text form for interop.
"""

import numpy as np

FLAG_WRITE = 1
FLAG_DEP = 2


class Trace:
    """An immutable sequence of memory operations with instruction gaps."""

    def __init__(self, gaps, pcs, addrs, flags):
        self.gaps = np.asarray(gaps, dtype=np.int64)
        self.pcs = np.asarray(pcs, dtype=np.int64)
        self.addrs = np.asarray(addrs, dtype=np.int64)
        flags = np.asarray(flags)
        if flags.dtype != np.uint8:
            # Callers pass Python lists, int64 arrays and the like: accept
            # any integer encoding whose values fit, and reject (rather
            # than silently wrap) anything else.
            if flags.size and (
                (flags < 0) | (flags > np.iinfo(np.uint8).max)
            ).any():
                raise ValueError("trace flags must fit in uint8")
            flags = flags.astype(np.uint8)
        self.flags = flags
        n = len(self.gaps)
        if not (len(self.pcs) == len(self.addrs) == len(self.flags) == n):
            raise ValueError("trace arrays must have equal length")
        if n and (self.gaps < 0).any():
            raise ValueError("instruction gaps must be non-negative")

    def __len__(self):
        return len(self.gaps)

    def __iter__(self):
        return zip(
            self.gaps.tolist(), self.pcs.tolist(), self.addrs.tolist(), self.flags.tolist()
        )

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Trace(self.gaps[idx], self.pcs[idx], self.addrs[idx], self.flags[idx])
        return (
            int(self.gaps[idx]),
            int(self.pcs[idx]),
            int(self.addrs[idx]),
            int(self.flags[idx]),
        )

    @property
    def instructions(self):
        """Total instruction count (memory ops + gaps)."""
        return int(self.gaps.sum()) + len(self)

    def mpki_upper_bound(self):
        """Memory ops per kilo-instruction (an upper bound on miss MPKI)."""
        instrs = self.instructions
        return 1000.0 * len(self) / instrs if instrs else 0.0

    @classmethod
    def from_records(cls, records):
        """Build a trace from an iterable of (gap, pc, addr, flags) tuples."""
        records = list(records)
        if not records:
            return cls([], [], [], [])
        gaps, pcs, addrs, flags = zip(*records)
        return cls(gaps, pcs, addrs, flags)

    @classmethod
    def concat(cls, traces):
        """Concatenate traces in order."""
        traces = [t for t in traces if len(t)]
        if not traces:
            return cls([], [], [], [])
        return cls(
            np.concatenate([t.gaps for t in traces]),
            np.concatenate([t.pcs for t in traces]),
            np.concatenate([t.addrs for t in traces]),
            np.concatenate([t.flags for t in traces]),
        )

    def rebase(self, byte_offset):
        """Return a copy with every address shifted by ``byte_offset``.

        Multi-programmed mixes run copies of the same workload on several
        cores; rebasing gives each copy its own physical address space, as
        distinct processes would have.
        """
        return Trace(self.gaps, self.pcs, self.addrs + int(byte_offset), self.flags)


class TraceBuilder:
    """Incremental trace construction for the workload generators.

    Storage is chunked: bulk emissions (:meth:`extend_arrays`) keep their
    NumPy arrays as-is, scalar :meth:`append` calls accumulate in a small
    pending buffer, and :meth:`build` concatenates everything exactly
    once.  The array-native generators therefore never round-trip their
    data through per-element Python ``int`` conversions.
    """

    def __init__(self):
        self._chunks = []  # (gaps, pcs, addrs, flags) array quadruples
        self._pending = ([], [], [], [])  # scalar-append buffer
        self._n = 0

    def __len__(self):
        return self._n

    def append(self, gap, pc, addr, write=False, dep=False):
        """Add one memory operation preceded by ``gap`` plain instructions."""
        if gap < 0:
            raise ValueError("gap must be non-negative")
        gaps, pcs, addrs, flags = self._pending
        gaps.append(int(gap))
        pcs.append(int(pc))
        addrs.append(int(addr))
        flags.append((FLAG_WRITE if write else 0) | (FLAG_DEP if dep else 0))
        self._n += 1

    def _flush_pending(self):
        gaps, pcs, addrs, flags = self._pending
        if gaps:
            self._chunks.append(
                (
                    np.asarray(gaps, dtype=np.int64),
                    np.asarray(pcs, dtype=np.int64),
                    np.asarray(addrs, dtype=np.int64),
                    np.asarray(flags, dtype=np.uint8),
                )
            )
            self._pending = ([], [], [], [])

    def extend_arrays(self, gaps, pcs, addrs, flags=None):
        """Bulk-append parallel arrays (the vectorized generators' path).

        The arrays are kept as NumPy chunks (dtype-coerced, no Python
        round-trip) and concatenated once at :meth:`build`.  Callers must
        not mutate the arrays they pass in afterwards.
        """
        gaps = np.asarray(gaps, dtype=np.int64)
        pcs = np.asarray(pcs, dtype=np.int64)
        addrs = np.asarray(addrs, dtype=np.int64)
        n = len(gaps)
        if flags is None:
            flags = np.zeros(n, dtype=np.uint8)
        else:
            flags = np.asarray(flags, dtype=np.uint8)
        if not (len(pcs) == len(addrs) == len(flags) == n):
            raise ValueError("bulk arrays must have equal length")
        if n == 0:
            return
        self._flush_pending()
        self._chunks.append((gaps, pcs, addrs, flags))
        self._n += n

    def build(self):
        """Finalize into an immutable :class:`Trace` (one concatenation)."""
        self._flush_pending()
        chunks = self._chunks
        if not chunks:
            return Trace([], [], [], [])
        if len(chunks) == 1:
            gaps, pcs, addrs, flags = chunks[0]
        else:
            gaps = np.concatenate([c[0] for c in chunks])
            pcs = np.concatenate([c[1] for c in chunks])
            addrs = np.concatenate([c[2] for c in chunks])
            flags = np.concatenate([c[3] for c in chunks])
            self._chunks = [(gaps, pcs, addrs, flags)]
        return Trace(gaps, pcs, addrs, flags)
