"""Address-geometry constants shared across the simulator.

The paper (Table 2) models 64-byte cache lines and 4KB physical pages.
DSPatch additionally splits each page into two 2KB segments (Section 3.7)
and compresses bit-patterns to a 128-byte granularity (Section 3.8).
"""

LINE_SIZE = 64
LINE_SHIFT = 6

PAGE_SIZE = 4096
PAGE_SHIFT = 12

#: Number of 64B cache lines in a 4KB page (uncompressed bit-pattern width).
LINES_PER_PAGE = PAGE_SIZE // LINE_SIZE

#: Number of 64B lines in a 2KB segment (half-page trigger granularity).
LINES_PER_SEGMENT = LINES_PER_PAGE // 2

#: Width of a 128B-granularity compressed page pattern (Section 3.8).
COMPRESSED_BITS_PER_PAGE = LINES_PER_PAGE // 2

#: Width of one compressed half (2KB segment) of a page pattern.
COMPRESSED_BITS_PER_SEGMENT = COMPRESSED_BITS_PER_PAGE // 2

#: Table 2 LLC capacities: single-thread (2MB) and multi-programmed
#: shared (8MB) machines.  Single source for `SystemConfig` factory
#: defaults and the engine's spec defaults.
ST_LLC_BYTES = 2 * 1024 * 1024
MP_LLC_BYTES = 8 * 1024 * 1024


def page_number(addr):
    """Return the 4KB physical page number of byte address ``addr``."""
    return addr >> PAGE_SHIFT


def line_offset_in_page(addr):
    """Return the 64B-line offset (0..63) of ``addr`` within its 4KB page."""
    return (addr >> LINE_SHIFT) & (LINES_PER_PAGE - 1)


def segment_of_line_offset(line_off):
    """Return the 2KB segment index (0 or 1) of a line offset in a page."""
    return line_off >> 5
