"""Multi-programmed workload mixes (Section 4.2).

- *Homogeneous* mixes: four copies of one memory-intensive workload, one
  per core (42 mixes — one per high-MPKI workload).
- *Heterogeneous* mixes: four workloads drawn at random from the 42
  high-MPKI set (the paper generates 75 such mixes; the count here is a
  parameter so benches can scale).

Each core's copy is rebased into its own physical address range, as
separate processes would be.
"""

import numpy as np

from repro.workloads.catalog import MEMORY_INTENSIVE, memoized_trace

#: Address-space stride between cores' rebased copies (1 TB apart).
CORE_ADDRESS_STRIDE = 1 << 40


def homogeneous_mixes(workloads=None):
    """One 4-copy mix per memory-intensive workload.

    Returns a list of (mix_name, [workload_name] * 4).
    """
    names = list(workloads) if workloads is not None else list(MEMORY_INTENSIVE)
    return [(name, [name] * 4) for name in names]


def heterogeneous_mixes(count=75, seed=20191012, workloads=None):
    """``count`` random 4-workload mixes from the memory-intensive set.

    The default seed pins the paper-sized draw; benches pass smaller
    counts.  Returns a list of (mix_name, [w0, w1, w2, w3]).
    """
    pool = list(workloads) if workloads is not None else list(MEMORY_INTENSIVE)
    if len(pool) < 4:
        raise ValueError("need at least four workloads to build mixes")
    rng = np.random.default_rng(seed)
    mixes = []
    for i in range(count):
        picks = [pool[int(j)] for j in rng.choice(len(pool), size=4, replace=False)]
        mixes.append((f"hetero-{i:02d}", picks))
    return mixes


def build_mix_traces(workload_names, length_per_core, memo=None):
    """One rebased trace per core for a 4-workload mix.

    The n-th core running a workload gets its copy ``n`` (see
    :meth:`~repro.workloads.catalog.Workload.build`), so copies of the
    same workload are not lock-step identical, and each core's trace sits
    in its own address range.  Traces come from ``memo`` (see
    :func:`~repro.workloads.catalog.memoized_trace`); without one, each
    is built afresh.
    """
    memo = {} if memo is None else memo
    traces = []
    copies = {}
    for core, name in enumerate(workload_names):
        copy = copies.get(name, 0)
        copies[name] = copy + 1
        trace = memoized_trace(memo, name, length_per_core, copy)
        traces.append(trace.rebase(core * CORE_ADDRESS_STRIDE))
    return traces
