"""DSPatch — the paper's primary contribution.

The public surface of this package is:

- :class:`repro.core.dspatch.DSPatch` — the full Section 3 prefetcher,
  and :class:`repro.core.dspatch.DSPatchConfig`, its sizes and the
  switches of its ablations (Section 5.5's AlwaysCovP and ModCovP
  selections among them).
- :mod:`repro.core.bitpattern` — anchored-rotation / compression / quartile
  primitives (Sections 3.3, 3.5, 3.8).
- :class:`repro.core.page_buffer.PageBuffer` and
  :class:`repro.core.spt.SignaturePredictionTable` — the two hardware
  structures of Figure 7.
"""

from repro.core.bitpattern import (
    anchor_pattern,
    compress_pattern,
    expand_pattern,
    pattern_from_offsets,
    popcount,
    quantize_quartile,
    rotate_left,
    rotate_right,
    unanchor_pattern,
)
from repro.core.dspatch import DSPatch, DSPatchConfig
from repro.core.page_buffer import PageBuffer, PageBufferEntry
from repro.core.selection import PatternChoice, select_pattern
from repro.core.spt import SignaturePredictionTable, SptEntry, fold_xor_hash

__all__ = [
    "DSPatch",
    "DSPatchConfig",
    "PageBuffer",
    "PageBufferEntry",
    "PatternChoice",
    "SignaturePredictionTable",
    "SptEntry",
    "anchor_pattern",
    "compress_pattern",
    "expand_pattern",
    "fold_xor_hash",
    "pattern_from_offsets",
    "popcount",
    "quantize_quartile",
    "rotate_left",
    "rotate_right",
    "select_pattern",
    "unanchor_pattern",
]
