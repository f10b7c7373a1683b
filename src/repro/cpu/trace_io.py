"""Text trace interchange format.

The only on-disk form a :class:`~repro.cpu.trace.Trace` has: the engine
keeps traces in memory (memoized in the process, rebuilt, never stored),
and this module writes and reads a line-oriented text format for interop
with external tools (spreadsheets, awk, other simulators' converters):

    # repro-trace v1
    # gap pc addr flags
    100 0x400000 0x12345040 0
    63 0x400004 0x12345080 W
    ...

One record per line: the instruction gap (decimal), the PC and byte
address (hex), and a flag field that is ``0`` or any combination of ``W``
(write) and ``D`` (address-dependent load).  Lines starting with ``#``
are comments.  The format is deliberately lossless with respect to
:class:`~repro.cpu.trace.Trace`.
"""

import numpy as np

from repro.cpu.trace import FLAG_DEP, FLAG_WRITE, Trace

_HEADER = "# repro-trace v1"


class TraceFormatError(ValueError):
    """Raised when a text trace file cannot be parsed."""


def _flags_to_text(flags):
    if not flags:
        return "0"
    out = ""
    if flags & FLAG_WRITE:
        out += "W"
    if flags & FLAG_DEP:
        out += "D"
    return out


def _flags_from_text(text, lineno):
    if text == "0":
        return 0
    flags = 0
    for ch in text:
        if ch == "W":
            flags |= FLAG_WRITE
        elif ch == "D":
            flags |= FLAG_DEP
        else:
            raise TraceFormatError(f"line {lineno}: unknown flag {ch!r}")
    return flags


def save_text(trace, path):
    """Write ``trace`` to ``path`` in the v1 text format."""
    with open(path, "w") as f:
        f.write(_HEADER + "\n")
        f.write("# gap pc addr flags\n")
        for gap, pc, addr, flags in trace:
            f.write(f"{gap} 0x{pc:x} 0x{addr:x} {_flags_to_text(flags)}\n")


def load_text(path):
    """Parse a v1 text trace file back into a :class:`Trace`."""
    gaps, pcs, addrs, flags = [], [], [], []
    with open(path) as f:
        first = f.readline().rstrip("\n")
        if first != _HEADER:
            raise TraceFormatError(f"missing header line {_HEADER!r}, got {first!r}")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise TraceFormatError(f"line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                gaps.append(int(parts[0]))
                pcs.append(int(parts[1], 16))
                addrs.append(int(parts[2], 16))
            except ValueError as exc:
                raise TraceFormatError(f"line {lineno}: {exc}") from None
            flags.append(_flags_from_text(parts[3], lineno))
    return Trace(
        np.array(gaps, dtype=np.int64),
        np.array(pcs, dtype=np.int64),
        np.array(addrs, dtype=np.int64),
        np.array(flags, dtype=np.int64),
    )
