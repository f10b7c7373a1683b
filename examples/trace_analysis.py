#!/usr/bin/env python3
"""Trace analysis: inspect the access structure a prefetcher has to learn.

Uses the analysis module to print, for three structurally different
workloads, the statistics the paper's design decisions rest on:

- the +1/-1 delta share (Figure 11a) that justifies 128B compression,
- the (PC x offset) trigger-signature count that sizes SMS's PHT
  (Figure 5) versus DSPatch's 256-entry PC-only SPT,
- page density, footprint, and the compression-induced misprediction
  rate (Figure 11b).

Traces come from ``Session.trace``, which memoizes each trace in the
process and rebuilds it, never stores it; the session is built with
``disk_cache=False`` because this script asks for no simulation results
that a store could keep.  Also demonstrates the text trace format for
interop with external tools.
"""

import os
import tempfile
from pathlib import Path

from repro import Session, TraceSpec
from repro.cpu.trace_io import load_text, save_text
from repro.workloads.analysis import analyze_trace

WORKLOADS = ("hpc.linpack", "server.tpcc-1", "sysmark.excel")
LENGTH = int(os.environ.get("REPRO_EXAMPLE_LENGTH", "8000"))


def main():
    session = Session(disk_cache=False)
    for name in WORKLOADS:
        trace = session.trace(TraceSpec(name, LENGTH))
        print(analyze_trace(trace, name).render())
        print()

    # Round-trip through the text interchange format.
    trace = session.trace(TraceSpec("ispec06.mcf", 500))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mcf.trace"
        save_text(trace, path)
        size_kb = path.stat().st_size / 1024
        back = load_text(path)
        assert list(back) == list(trace)
        print(f"text round-trip: {len(back)} ops, {size_kb:.1f} KB on disk, lossless")
        print("first lines of the file:")
        for line in path.read_text().splitlines()[:5]:
            print(f"  {line}")


if __name__ == "__main__":
    main()
