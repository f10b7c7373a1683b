"""Flat-state kernel: the compiled twin of the object model's run loop.

The object model (``MemoryHierarchy`` driven by
``CoreExecution.run_ops_until``, with the cores scheduled by
``interleave_two_level``) is the simulator's one readable spec.
``repro.kernel`` holds its one fast twin:

- :mod:`repro.kernel.layout`/:mod:`repro.kernel.state` lay a run's
  state out as a :class:`~repro.kernel.state.KernelState` of flat int
  arrays straight from its ``SystemConfig`` (or pack built objects, the
  tests' reference; the translation runs one way, objects to slots);
  each training twin is declared once, by its records in ``layout``;
- :mod:`repro.kernel.cgen`/:mod:`repro.kernel.cbuild` generate, compile
  and load the C under ``kernel/c/``, a transliteration of the object
  model's per-access path and of its multi-core scheduler over those
  arrays, when a toolchain is available;
- :mod:`repro.kernel.execution` is the system driver's entry:
  ``KernelDomain.interleave`` runs a whole schedule in one C call, which
  calls back into Python where the object model runs it (a crossing
  scheme's training and usefulness notes, warmup checkpoints) and for
  the rare growth of BOP's pending-fill ring or of the pollution logs;
  results are read from the flat counters.

The twin is bit-identical to the object model (pinned by
``tests/test_kernel_parity.py``, which compares results and the whole
machine's end state in flat form); without a toolchain the object model
runs instead.
"""

from repro.kernel.execution import (  # noqa: F401
    KernelExecution,
    kernel_available,
    kernel_unavailable_reason,
)
