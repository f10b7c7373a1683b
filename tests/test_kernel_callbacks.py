"""The compiled kernel's Python callbacks: failures and lifetimes.

A compiled run is one ``ksched`` call that calls Python where the object
model runs it: a scheme without a C twin trains and takes its usefulness
notes through callbacks (``KernelDomain.interleave``).  Pinned here:

1. a callback that raises stops the run: the compiled run raises the
   object run's exception, type and message, after the same scheme
   calls in the same order, and calls no scheme method after it, on one
   core and on four;
2. the next run in the same process still matches the object model;
3. a finished compiled run leaves no reference cycle behind: with the
   cyclic GC disabled, no ``KernelExecution`` or ``KernelDomain``
   outlives it.
"""

import gc
import weakref

import pytest

import repro.cpu.system as system_mod
from repro.cpu.system import MultiCoreSystem, System, SystemConfig
from repro.kernel import execution as kexec
from repro.kernel import kernel_available
from repro.prefetchers.spp import SPP
from repro.workloads.catalog import build_trace
from repro.workloads.mixes import build_mix_traces

needs_compiled = pytest.mark.skipif(
    not kernel_available(), reason="no C toolchain: the compiled kernel cannot be built"
)

_MIX = ["ispec06.mcf", "cloud.memcached", "hpc.npb-bt", "sysmark.excel"]


class SchemeFault(Exception):
    pass


def _failing_spp(calls, hook, at):
    """SPP, subclassed so that it crosses, logging each call of the three
    hooks the kernel calls into ``calls`` (every core's instance into the
    one list); the ``at``-th call of ``hook`` raises."""
    counts = {}

    class FailingSPP(SPP):
        def _log(self, name, args):
            calls.append((name, args))
            counts[name] = counts.get(name, 0) + 1
            if name == hook and counts[name] == at:
                raise SchemeFault(f"{hook} call {at}")

        def train(self, *args):
            self._log("train", args)
            return super().train(*args)

        def note_useful_prefetch(self, *args):
            self._log("note_useful_prefetch", args)
            super().note_useful_prefetch(*args)

        def note_useless_prefetch(self, *args):
            self._log("note_useless_prefetch", args)
            super().note_useless_prefetch(*args)

    return FailingSPP


def _run(cfg, cores):
    if cores == 1:
        return [System(cfg).run(build_trace("server.tpcc-1", 3000))]
    return MultiCoreSystem(cfg, num_cores=cores).run(build_mix_traces(_MIX, 900)).per_core


def _config(kernel, cores, scheme="spp"):
    if cores == 1:
        return SystemConfig.single_thread(scheme, kernel=kernel)
    return SystemConfig.multi_programmed(scheme, kernel=kernel)


def _failing_run(monkeypatch, kernel, cores, hook, at):
    """The exception a run raises when ``hook``'s ``at``-th call raises,
    and every scheme call the run made."""
    calls = []
    scheme = _failing_spp(calls, hook, at)
    with monkeypatch.context() as patch:
        patch.setattr(system_mod, "build_prefetcher", lambda name, bandwidth: scheme())
        with pytest.raises(SchemeFault) as info:
            _run(_config(kernel, cores), cores)
    return info.value, calls


@needs_compiled
@pytest.mark.parametrize("cores", (1, 4), ids=("st", "mp"))
@pytest.mark.parametrize("hook,at", (("train", 700), ("note_useful_prefetch", 30)))
def test_a_raising_callback_stops_the_run(hook, at, cores, monkeypatch):
    want, want_calls = _failing_run(monkeypatch, "object", cores, hook, at)
    got, got_calls = _failing_run(monkeypatch, "compiled", cores, hook, at)
    assert type(got) is type(want) and str(got) == str(want) == f"{hook} call {at}"
    # The same calls in the same order, the raising one last.
    assert got_calls[-1][0] == hook
    assert got_calls == want_calls

    # The next run in the process, crossing and twinned, is unaffected.
    for scheme in ("fdp:spp", "spp+dspatch"):
        results = {
            kernel: [r.to_dict() for r in _run(_config(kernel, cores, scheme), cores)]
            for kernel in ("object", "compiled")
        }
        assert results["compiled"] == results["object"], scheme


@needs_compiled
@pytest.mark.parametrize("scheme", ("spp+dspatch", "ampm", "spp+dspatch-64b", "fdp:bop"))
def test_a_finished_run_leaves_no_kernel_object_alive(scheme, monkeypatch):
    """Nothing of a compiled run is kept alive once it returns, not even
    while the cyclic GC is off (as it is during every run): each run's
    arrays are freed at once.  Callbacks filed in a ctypes object's own
    ``_objects`` (``ctypes.cast``), or held by the execution, would form
    a reference cycle that keeps every core's arrays until a collection."""
    alive = []

    def tracked(cls):
        class Tracked(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                alive.append(weakref.ref(self))

        return Tracked

    monkeypatch.setattr(kexec, "KernelDomain", tracked(kexec.KernelDomain))
    monkeypatch.setattr(kexec, "KernelExecution", tracked(kexec.KernelExecution))
    enabled = gc.isenabled()
    gc.disable()
    try:
        for cores in (1, 4):
            _run(_config("compiled", cores, scheme), cores)
        # read before the GC is back on: its first collection would free
        # a cycle's objects
        survivors = [ref() is not None for ref in alive]
    finally:
        if enabled:
            gc.enable()
    assert survivors == [False] * ((1 + 1) + (1 + 4))
