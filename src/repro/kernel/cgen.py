"""C source generation for the compiled kernel twin.

The emitted translation unit is a transliteration of the object model —
the per-access path of :class:`repro.memory.hierarchy.MemoryHierarchy`
(with its caches, MSHRs, DRAM model and bandwidth monitor), the core
timing loop of :meth:`repro.cpu.core.CoreExecution.run_ops_until` and
the multi-core scheduler :func:`repro.cpu.core.interleave_two_level`,
the executable specs — against flat arrays laid out by
:mod:`repro.kernel.layout`.  The C lives in ``kernel/c/*.c``
(:data:`C_FILES`); this module only prepends the slot dictionaries as
``#define`` lines, so the C and the packing code can never disagree
about where a counter lives.

Exported symbols:

- ``long ksched(void ***tables, long n_cores, long long *stop, void
  (*on_stop)(int64_t core))`` — the twin of
  :func:`repro.cpu.core.interleave_two_level`: picks the
  minimum-``(retire, core)`` core and runs the op body ``krun`` on it
  (one core's batch, over its pointer table, bounded by ``krun``'s
  arguments), over and over, calling ``on_stop`` at each core's warmup
  checkpoint.  It returns ``RC_DONE`` when every core is done, or
  ``RC_ERROR`` once a Python callback has raised.  ``krun`` calls Python where the object
  model does: a scheme without a C twin trains through the pointer
  table's ``train`` callback, which writes its candidates into the
  candidate buffers, and gets its usefulness notes through ``note``;
  ``grow`` re-lays BOP's pending-fill ring or a pollution log that
  lacks room for the next op.  ``krun`` re-binds its array pointers
  after a callback that can re-lay one.  A scheme with compiled twins
  (slot ``scheme_len`` > 0) never crosses: its training runs in C
  against flat tables and fills the candidate buffers directly.  Every
  twin (one per record of ``layout.TWINS``) reads its config from
  flat-state slots and sizes its tables from them, so one twin per class
  serves every config the gate admits, and a composite is the list of
  its components' twins, trained in arbitration order with
  ``CompositePrefetcher``'s merge.  With the ``pl_on`` slot set,
  ``krun`` also records the three pollution logs of
  :class:`repro.observe.sinks.PollutionCollector` (the spec) into
  per-core ``(ordinal, line)`` arrays.
- ``long kbucket(long long *si, double *sf, long long cycle)`` — the
  bandwidth monitor's live 2-bit signal (advances the monitor exactly
  like ``BandwidthMonitor.bucket``).

Floating-point parity with CPython requires that every double operation
happen in the same order with no contraction — build with
``-ffp-contract=off`` (see :mod:`repro.kernel.cbuild`).
"""

from pathlib import Path

from repro.constants import LINE_SHIFT, PAGE_SHIFT
from repro.kernel import layout
from repro.kernel.layout import CF64, CI64, PTR, SF64, SI64


def _defines():
    lines = []
    for prefix, table in (("CI_", CI64), ("CF_", CF64), ("SI_", SI64), ("SF_", SF64), ("P_", PTR)):
        for name, idx in table.items():
            lines.append(f"#define {prefix}{name} {idx}")
    lines.append(f"#define LINE_SHIFT {LINE_SHIFT}")
    lines.append(f"#define PG_SHIFT {PAGE_SHIFT - LINE_SHIFT}")

    def group(prefix):
        return [(k, v) for k, v in vars(layout).items() if k.startswith(prefix) and isinstance(v, int)]

    constants = (
        *group("RC_"),
        *(define for family in layout.FAMILIES for define in family.defines),
        *group("SCHEME_"),
    )
    lines.extend(f"#define {name} {value}" for name, value in constants)
    # Every twin table as X(C type, name): kctx_t's fields and bind's
    # lines expand it.
    lines.append("#define TWIN_ARRAYS(X)" + "".join(
        f" \\\n    X({_C_TYPES[table.dtype]}, {table.name})" for table in layout.TWIN_ARRAYS
    ))
    return "\n".join(lines)


_C_TYPES = {"int64": "int64_t", "uint64": "uint64_t", "float64": "double"}

#: The kernel's C, in the order the translation unit joins it: the
#: machine, one file per twin's table family, the scheme dispatch and
#: the run loop.  They are one unit, not separate ones: each file uses
#: the ``#define`` lines and what the files before it declare.
C_FILES = ("machine.c", *(family.c_file for family in layout.FAMILIES), "scheme.c", "run.c")
C_DIR = Path(__file__).with_name("c")


def generate_source():
    """The complete C translation unit for the compiled kernel."""
    return _defines() + "\n\n" + "\n".join((C_DIR / name).read_text() for name in C_FILES)
