"""Outside-in per-layer ledger: spans around the public callables.

The ledger patches module and class attributes of the simulator for the
duration of one traced pass, records a span per call (layer, start,
duration, self time, parent span) in memory, and restores every
attribute afterwards.  Nothing inside ``src/`` knows it is being timed.

Calls made hundreds of thousands of times per pass (training crossings,
scheduler batches) are *hot*: their spans are folded into per-layer
totals (calls, duration, self time) as they close, which keeps the
tracing overhead and the memory of a traced pass small.

A layer's self time is its spans' durations minus the parts covered by
child spans, so the layers partition the traced pass: what no span
covers is reported as unattributed.  A hooked name that no longer exists
(say after a refactor removes it) is reported as absent, not fatal.
"""

import functools
import importlib
import json
import time
from collections import Counter

#: (module, attribute path, layer).  Classes named from ``repro.cpu.system``
#: are replaced there by a timed factory, so only construction *as called
#: from the system drivers* is charged to ``cpu.build``.
HOOKS = (
    ("repro.workloads.catalog", "Workload.build", "workloads.build"),
    ("repro.workloads.mixes", "build_mix_traces", "workloads.build"),
    ("repro.engine.session", "Session.run", "engine.session"),
    ("repro.engine.backends", "LocalDirBackend.save_result", "engine.save"),
    ("repro.engine.backends", "LocalDirBackend.save_trace", "engine.save"),
    ("repro.engine.backends", "LocalDirBackend.load_result", "engine.load"),
    ("repro.engine.backends", "LocalDirBackend.load_trace", "engine.load"),
    ("repro.cpu.system", "DramModel", "cpu.build"),
    ("repro.cpu.system", "Cache", "cpu.build"),
    ("repro.cpu.system", "MemoryHierarchy", "cpu.build"),
    ("repro.cpu.system", "ObservedHierarchy", "cpu.build"),
    ("repro.cpu.system", "CoreExecution", "cpu.build"),
    ("repro.cpu.system", "PcStridePrefetcher", "cpu.build"),
    ("repro.cpu.system", "build_prefetcher", "cpu.build"),
    ("repro.cpu.system", "System.run", "cpu.run"),
    ("repro.cpu.system", "MultiCoreSystem.run", "cpu.run"),
    ("repro.cpu.system", "interleave_two_level", "cpu.schedule"),
    ("repro.cpu.system", "interleave_batched", "cpu.schedule"),
    ("repro.kernel.execution", "KernelDomain.__init__", "kernel.pack"),
    ("repro.kernel.execution", "KernelExecution.__init__", "kernel.pack"),
    ("repro.kernel.execution", "KernelExecution.run_ops", "kernel.loop"),
    ("repro.kernel.execution", "KernelExecution.run_ops_until", "kernel.loop"),
    ("repro.kernel.execution", "KernelExecution.write_back", "kernel.writeback"),
    ("repro.kernel.execution", "KernelDomain.write_back", "kernel.writeback"),
    ("repro.cpu.core", "CoreExecution.run_ops", "memory.object_loop"),
    ("repro.cpu.core", "CoreExecution.run_ops_until", "memory.object_loop"),
)

#: The L2 scheme's ``train`` bound on each prefetcher the system drivers
#: build: every call is one training crossing into scheme Python.
TRAIN_LAYER = "prefetchers.train"

#: Hooks whose spans are folded into totals instead of kept one by one.
HOT = {"KernelExecution.run_ops_until", "CoreExecution.run_ops_until"}


def _after_build_trace(ledger, args, result):
    ledger.counts["workloads.traces"] += 1


def _after_build_mix(ledger, args, result):
    ledger.counts["workloads.traces"] += len(result)


def _after_load(ledger, args, result):
    ledger.counts["engine.load_hits"] += result is not None


def _after_batch(ledger, args, result):
    ledger.counts["cpu.batches"] += 1
    ledger.counts["cpu.batch_ops"] += result


def _after_build_prefetcher(ledger, args, result):
    # Wrap the instance's train before the hierarchy or kernel binds it.
    if getattr(result, "train", None) is not None:
        result.train = ledger.wrap_hot(result.train, TRAIN_LAYER)


AFTER = {
    "Workload.build": _after_build_trace,
    "build_mix_traces": _after_build_mix,
    "LocalDirBackend.load_result": _after_load,
    "LocalDirBackend.load_trace": _after_load,
    "KernelExecution.run_ops_until": _after_batch,
    "CoreExecution.run_ops_until": _after_batch,
    "build_prefetcher": _after_build_prefetcher,
}


def _resolve(module_name, path):
    """(owner, attribute name, current value) or ``None`` when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    # Read the class's own attribute, so a patched method is restored as
    # the plain function it was, not as a bound method.
    value = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


class Ledger:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans = []
        #: layer -> [calls, duration ns, self ns] of its hot spans.
        self.hot = {}
        self.counts = Counter()
        self.absent = []
        #: Open spans, innermost last: [span index or -1, child ns].
        self._stack = [[-1, 0]]
        self._patches = []

    def wrap(self, fn, layer, after=None):
        """``fn`` timed as one recorded span of ``layer`` per call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0]
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][1] += duration
                spans[index] = (layer, start, duration, duration - frame[1], parent)
            if after is not None:
                after(self, args, result)
            return result

        # Copy the name and docstring only: a replaced class's namespace
        # must not leak into the wrapper function.
        return functools.update_wrapper(timed, fn, updated=())

    def wrap_hot(self, fn, layer, after=None):
        """``fn`` timed into the totals of ``layer`` (no per-call record)."""
        stack = self._stack
        clock = time.perf_counter_ns
        totals = self.hot.setdefault(layer, [0, 0, 0])

        def timed(*args, **kwargs):
            frame = [-1, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
            if after is not None:
                after(self, args, result)
            return result

        return functools.update_wrapper(timed, fn, updated=())

    def __enter__(self):
        for module_name, path, layer in HOOKS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr, value = found
            self._patches.append((owner, attr, value))
            wrap = self.wrap_hot if path in HOT else self.wrap
            setattr(owner, attr, wrap(value, layer, AFTER.get(path)))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- summaries -------------------------------------------------------

    def self_seconds(self):
        """Self time per layer, in seconds (0 for a layer with no spans)."""
        totals = Counter()
        for layer, _, _, self_ns, _ in self.spans:
            totals[layer] += self_ns
        for layer, (_, _, self_ns) in self.hot.items():
            totals[layer] += self_ns
        return Counter({layer: ns / 1e9 for layer, ns in totals.items()})

    def calls(self):
        calls = Counter(span[0] for span in self.spans)
        for layer, (count, _, _) in self.hot.items():
            calls[layer] += count
        return calls

    def covered_seconds(self):
        """Host time inside any span: the outermost spans' total."""
        return self._stack[0][1] / 1e9

    def write(self, path):
        """Write the spans (layers interned, times relative to the first)
        and the hot-layer totals."""
        layers = sorted({span[0] for span in self.spans})
        index = {layer: i for i, layer in enumerate(layers)}
        origin = self.spans[0][1] if self.spans else 0
        rows = [
            [index[layer], start - origin, duration, self_ns, parent]
            for layer, start, duration, self_ns, parent in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["layer", "start_ns", "dur_ns", "self_ns", "parent"],
                    "layers": layers,
                    "spans": rows,
                    "hot": {
                        layer: dict(zip(("calls", "dur_ns", "self_ns"), totals))
                        for layer, totals in self.hot.items()
                    },
                    "absent": self.absent,
                },
                fh,
            )
