"""One conformance suite every :class:`StoreBackend` must pass.

Backends are the engine's load-bearing persistence abstraction: a
session will happily plug in any object implementing the protocol, so
every implementation — current and future — must agree on the observable
contract.  This suite runs the same assertions against the three shipped
backends and the two ways :class:`TieredBackend` composes them:

- ``local``  — :class:`LocalDirBackend` on a tmp directory;
- ``memory`` — :class:`InMemoryBackend`;
- ``tiered`` — :class:`TieredBackend` (local dir over a read-only
  shared dir, the stack ``--shared-cache`` builds);
- ``tiered-memory`` — :class:`TieredBackend` over two process-local
  stores (the composition is backend-agnostic);
- ``tiered-nested`` — a local dir over a tiered shared stack (a
  shared mount that itself reads through to another).

The contract under test: put/get round-trips preserve payloads
bit-for-bit, unknown keys are honest ``None`` misses, overwrites are
last-write-wins, keys are isolated, a hit is a private copy, and every
result type a spec can produce (``RunResult``, ``MultiProgramResult``)
survives the round trip — a hit must be indistinguishable from a fresh
computation, and a session served by a hit computes nothing.  Traces
are not artifacts: sessions build them in memory, and the only calls a
backend ever sees are for results.
"""

import math
import pickle
import struct

import numpy as np
import pytest

from repro.engine import compute
from repro.engine import (
    InMemoryBackend,
    LocalDirBackend,
    MixSpec,
    RunSpec,
    Session,
    StoreBackend,
    TieredBackend,
    TraceSpec,
)
from repro.workloads.catalog import Workload

#: Well-formed content-addressed keys (64 lowercase hex chars).
DIGEST_A = "aa" + "0" * 62
DIGEST_B = "bb" + "0" * 62

BACKENDS = ("local", "memory", "tiered", "tiered-memory", "tiered-nested")


def _bits(x):
    """A float's IEEE-754 encoding (distinguishes -0.0 and NaNs)."""
    return struct.pack("<d", x)


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    """One instance of each shipped backend."""
    if request.param == "local":
        return LocalDirBackend(tmp_path / "store")
    if request.param == "memory":
        return InMemoryBackend()
    if request.param == "tiered-memory":
        return TieredBackend(InMemoryBackend(), InMemoryBackend())
    if request.param == "tiered-nested":
        return TieredBackend(
            LocalDirBackend(tmp_path / "local"),
            TieredBackend(
                LocalDirBackend(tmp_path / "mid", touch_on_load=False),
                LocalDirBackend(tmp_path / "origin", touch_on_load=False),
            ),
        )
    return TieredBackend(
        LocalDirBackend(tmp_path / "local"),
        LocalDirBackend(tmp_path / "shared", touch_on_load=False),
    )


class _Recording:
    """StoreBackend wrapper logging every call a session makes on it."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def load_result(self, digest):
        self.calls.append(("load_result", digest))
        return self.inner.load_result(digest)

    def save_result(self, digest, result):
        self.calls.append(("save_result", digest))
        return self.inner.save_result(digest, result)

    def clear(self):
        self.calls.append(("clear", None))
        return self.inner.clear()

    def stats(self):
        self.calls.append(("stats", None))
        return self.inner.stats()


def _count_builds(monkeypatch):
    """Log every trace build; returns the list of specs built."""
    builds = []
    build = Workload.build

    def counting(workload, length, copy=0):
        builds.append(TraceSpec(workload.name, length, copy))
        return build(workload, length, copy)

    monkeypatch.setattr(Workload, "build", counting)
    return builds


def _refuse_compute(monkeypatch):
    """Make every simulation entry point fail: only store hits succeed."""

    def refuse(*args, **kwargs):
        raise AssertionError("a store hit must not recompute")

    monkeypatch.setattr(compute, "simulate", refuse)
    monkeypatch.setattr(Workload, "build", refuse)


class TestProtocolConformance:
    def test_satisfies_the_protocol(self, backend):
        assert isinstance(backend, StoreBackend)

    def test_result_round_trip(self, backend):
        payload = {"ipc": 1.25, "nested": {"tuple": (1, 2.5, "x")}, "list": [1, 2]}
        backend.save_result(DIGEST_A, payload)
        assert backend.load_result(DIGEST_A) == payload

    def test_unknown_key_is_a_none_miss(self, backend):
        assert backend.load_result(DIGEST_A) is None

    def test_overwrite_is_last_write_wins(self, backend):
        backend.save_result(DIGEST_A, {"v": 1})
        backend.save_result(DIGEST_A, {"v": 2})
        assert backend.load_result(DIGEST_A) == {"v": 2}

    def test_saving_identical_payload_twice_is_idempotent(self, backend):
        backend.save_result(DIGEST_A, {"v": 1})
        backend.save_result(DIGEST_A, {"v": 1})
        assert backend.load_result(DIGEST_A) == {"v": 1}
        assert backend.stats()["results"] == 1

    def test_keys_are_isolated(self, backend):
        backend.save_result(DIGEST_A, {"who": "a"})
        backend.save_result(DIGEST_B, {"who": "b"})
        assert backend.load_result(DIGEST_A) == {"who": "a"}
        assert backend.load_result(DIGEST_B) == {"who": "b"}

    def test_clear_empties_the_writable_store(self, backend):
        backend.save_result(DIGEST_A, {"v": 1})
        backend.clear()
        assert backend.load_result(DIGEST_A) is None

    def test_stats_counts_entries(self, backend):
        empty = backend.stats()
        assert empty["results"] == 0
        backend.save_result(DIGEST_A, {"v": 1})
        stats = backend.stats()
        assert stats["results"] == 1
        assert stats["bytes"] > 0

    def test_float_payloads_survive_bit_for_bit(self, backend):
        values = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 0.1 + 0.2]
        backend.save_result(DIGEST_A, {"floats": values})
        back = backend.load_result(DIGEST_A)["floats"]
        assert [_bits(x) for x in back] == [_bits(x) for x in values]

    def test_falsy_payloads_are_hits_not_misses(self, backend):
        payloads = [{}, [], 0, 0.0, "", False, ()]
        digests = [f"{i:02x}" + "1" * 62 for i in range(len(payloads))]
        for digest, payload in zip(digests, payloads):
            backend.save_result(digest, payload)
        for digest, payload in zip(digests, payloads):
            back = backend.load_result(digest)
            assert back is not None
            assert type(back) is type(payload) and back == payload

    def test_hit_is_a_private_copy(self, backend):
        backend.save_result(DIGEST_A, {"list": [1, 2, 3]})
        first = backend.load_result(DIGEST_A)
        first["list"].append(4)
        second = backend.load_result(DIGEST_A)
        assert second is not first
        assert second == {"list": [1, 2, 3]}

    def test_save_snapshots_the_payload(self, backend):
        payload = {"list": [1, 2, 3]}
        backend.save_result(DIGEST_A, payload)
        payload["list"].append(4)
        assert backend.load_result(DIGEST_A) == {"list": [1, 2, 3]}

    def test_meta_never_leaks_into_the_result(self, backend):
        # A result shaped like the disk store's {"result": ...} envelope,
        # with a "meta" key of its own, comes back exactly as saved.
        enveloped = {"result": {"v": 1}, "meta": {"kind": "run", "v": 2}}
        backend.save_result(DIGEST_A, enveloped)
        backend.save_result(DIGEST_B, {"v": 3})
        assert backend.load_result(DIGEST_A) == enveloped
        assert backend.load_result(DIGEST_B) == {"v": 3}

    def test_numpy_payloads_round_trip_with_dtype(self, backend):
        arrays = {
            "u8": np.arange(5, dtype=np.uint8),
            "i64": np.array([-(2**62), 0, 2**62], dtype=np.int64),
            "f64": np.array([0.5, -0.0, np.nan]),
        }
        backend.save_result(DIGEST_A, arrays)
        back = backend.load_result(DIGEST_A)
        for name, array in arrays.items():
            assert back[name].dtype == array.dtype
            assert back[name].tobytes() == array.tobytes()

    def test_keys_fan_out_across_shards(self, backend):
        digests = [f"{i:02x}" + f"{i:062x}" for i in range(0, 256, 8)]
        for i, digest in enumerate(digests):
            backend.save_result(digest, {"i": i})
        assert [backend.load_result(d) for d in digests] == [
            {"i": i} for i in range(len(digests))
        ]
        assert backend.stats()["results"] == len(digests)

    def test_store_is_reusable_after_clear(self, backend):
        backend.save_result(DIGEST_A, {"v": 1})
        backend.clear()
        backend.save_result(DIGEST_A, {"v": 2})
        assert backend.load_result(DIGEST_A) == {"v": 2}

    def test_clear_on_an_empty_store_is_a_noop(self, backend):
        backend.clear()
        backend.clear()
        assert backend.stats()["results"] == 0

    def test_stats_bytes_grow_with_the_payload(self, backend):
        backend.save_result(DIGEST_A, {"blob": b"x" * 16})
        small = backend.stats()["bytes"]
        backend.save_result(DIGEST_B, {"blob": bytes(range(256)) * 64})
        assert backend.stats()["bytes"] > small


class TestSessionResultTypes:
    """Every result type a spec produces must survive the round trip.

    A backend hit has to be bit-for-bit indistinguishable from the fresh
    computation, for ``RunResult`` (RunSpec) and ``MultiProgramResult``
    (MixSpec) alike — this is the pickle-safety contract of the whole
    cache.
    """

    def test_run_result_round_trips_bitwise(self, backend):
        session = Session(backend=backend)
        spec = RunSpec("ispec06.mcf", "none", 300)
        fresh = session.run(spec)
        session.clear(disk=False)  # drop the memo; force the backend path
        reloaded = session.run(spec)
        assert reloaded is not fresh
        assert reloaded.to_dict() == fresh.to_dict()

    def test_mix_result_round_trips_bitwise(self, backend):
        session = Session(backend=backend)
        spec = MixSpec("m0", ("ispec06.mcf",) * 4, "none", 150)
        fresh = session.run(spec)
        session.clear(disk=False)
        reloaded = session.run(spec)
        assert reloaded is not fresh
        assert reloaded.global_cycles == fresh.global_cycles
        assert [c.to_dict() for c in reloaded.per_core] == [
            c.to_dict() for c in fresh.per_core
        ]

    def test_pollution_logs_round_trip_bitwise(self, backend):
        session = Session(backend=backend)
        spec = RunSpec("ispec06.mcf", "dspatch", 400, record_pollution=True)
        fresh = session.run(spec)
        session.clear(disk=False)
        reloaded = session.run(spec)
        assert reloaded is not fresh
        assert reloaded.pollution_events == fresh.pollution_events
        assert pickle.dumps(reloaded) == pickle.dumps(fresh)

    def test_second_session_is_served_a_run_without_recomputing(
        self, backend, monkeypatch
    ):
        spec = RunSpec("ispec06.mcf", "none", 300)
        fresh = Session(backend=backend).run(spec)
        _refuse_compute(monkeypatch)
        reloaded = Session(backend=backend).run(spec)
        assert pickle.dumps(reloaded) == pickle.dumps(fresh)

    def test_second_session_is_served_a_mix_without_recomputing(
        self, backend, monkeypatch
    ):
        spec = MixSpec("m0", ("ispec06.mcf",) * 4, "none", 150)
        fresh = Session(backend=backend).run(spec)
        _refuse_compute(monkeypatch)
        reloaded = Session(backend=backend).run(spec)
        assert pickle.dumps(reloaded) == pickle.dumps(fresh)


class TestTracesStayInMemory:
    """Traces are inputs, not artifacts: over every backend a session
    builds them in memory, and the store is asked about results only."""

    TRACE = TraceSpec("ispec06.mcf", 250)
    RUN = RunSpec("ispec06.mcf", "none", 250)
    MIX = MixSpec("m0", ("ispec06.mcf",) * 4, "none", 150)

    def test_trace_makes_no_store_call(self, backend):
        store = _Recording(backend)
        trace = Session(backend=store).trace(self.TRACE)
        assert len(trace) == self.TRACE.length
        assert store.calls == []

    def test_run_refuses_a_trace_spec_without_a_store_call(self, backend):
        store = _Recording(backend)
        with pytest.raises(TypeError, match=r"Session\.trace"):
            Session(backend=store).run(self.TRACE)
        assert store.calls == []

    def test_cold_run_probes_and_saves_its_result_only(self, backend):
        store = _Recording(backend)
        Session(backend=store).run(self.RUN)
        digest = self.RUN.fingerprint()
        assert store.calls == [("load_result", digest), ("save_result", digest)]
        assert backend.stats()["results"] == 1

    def test_cold_mix_probes_and_saves_its_result_only(self, backend):
        store = _Recording(backend)
        Session(backend=store).run(self.MIX)
        digest = self.MIX.fingerprint()
        assert store.calls == [("load_result", digest), ("save_result", digest)]
        assert backend.stats()["results"] == 1

    def test_warm_run_is_one_probe_and_builds_no_trace(self, backend, monkeypatch):
        Session(backend=backend).run(self.RUN)
        builds = _count_builds(monkeypatch)
        store = _Recording(backend)
        session = Session(backend=store)
        session.run(self.RUN)
        assert store.calls == [("load_result", self.RUN.fingerprint())]
        assert builds == []
        assert session.memo_stats()["traces"] == 0

    def test_second_session_rebuilds_an_identical_trace(self, backend, monkeypatch):
        first = Session(backend=backend).trace(self.TRACE)
        builds = _count_builds(monkeypatch)
        second = Session(backend=backend).trace(self.TRACE)
        assert builds == [self.TRACE]
        assert second is not first
        assert list(second) == list(first)
        assert second.flags.dtype == first.flags.dtype == np.uint8

    def test_clearing_the_store_keeps_the_trace_memo(self, backend, monkeypatch):
        session = Session(backend=backend)
        trace = session.trace(self.TRACE)
        session.run(self.RUN)
        session.clear(memory=False)
        assert backend.stats()["results"] == 0
        builds = _count_builds(monkeypatch)
        assert session.trace(self.TRACE) is trace
        assert builds == []
