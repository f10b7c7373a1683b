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
artifact type a spec can produce (``RunResult``, ``MultiProgramResult``,
``Trace``) survives the round trip — a hit must be indistinguishable
from a fresh computation, and a session served by a hit computes
nothing.
"""

import math
import pickle
import struct

import numpy as np
import pytest

from repro.cpu.trace import Trace
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

#: Well-formed content-addressed keys (64 lowercase hex chars).
DIGEST_A = "aa" + "0" * 62
DIGEST_B = "bb" + "0" * 62

BACKENDS = ("local", "memory", "tiered", "tiered-memory", "tiered-nested")


def _tiny_trace():
    return Trace(
        np.array([5, 7, 11], dtype=np.int64),
        np.array([0x400000, 0x400004, 0x400008], dtype=np.int64),
        np.array([0x1000, 0x1040, 0x1080], dtype=np.int64),
        np.array([0, 1, 2], dtype=np.uint8),
    )


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


def _refuse_compute(monkeypatch):
    """Make every simulation entry point fail: only store hits succeed."""

    def refuse(*args, **kwargs):
        raise AssertionError("a store hit must not recompute")

    for name in ("build_trace_artifact", "simulate_run", "simulate_mix"):
        monkeypatch.setattr(compute, name, refuse)


class TestProtocolConformance:
    def test_satisfies_the_protocol(self, backend):
        assert isinstance(backend, StoreBackend)

    def test_result_round_trip(self, backend):
        payload = {"ipc": 1.25, "nested": {"tuple": (1, 2.5, "x")}, "list": [1, 2]}
        backend.save_result(DIGEST_A, payload, meta={"kind": "test"})
        assert backend.load_result(DIGEST_A) == payload

    def test_unknown_key_is_a_none_miss(self, backend):
        assert backend.load_result(DIGEST_A) is None
        assert backend.load_trace(DIGEST_A) is None

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

    def test_results_and_traces_are_separate_namespaces(self, backend):
        backend.save_result(DIGEST_A, {"kind": "result"})
        backend.save_trace(DIGEST_A, _tiny_trace())
        assert backend.load_result(DIGEST_A) == {"kind": "result"}
        assert list(backend.load_trace(DIGEST_A)) == list(_tiny_trace())

    def test_trace_round_trip_preserves_arrays(self, backend):
        trace = _tiny_trace()
        backend.save_trace(DIGEST_A, trace)
        back = backend.load_trace(DIGEST_A)
        assert list(back) == list(trace)
        assert back.flags.dtype == trace.flags.dtype

    def test_clear_empties_the_writable_store(self, backend):
        backend.save_result(DIGEST_A, {"v": 1})
        backend.save_trace(DIGEST_B, _tiny_trace())
        backend.clear()
        assert backend.load_result(DIGEST_A) is None
        assert backend.load_trace(DIGEST_B) is None

    def test_stats_counts_entries(self, backend):
        empty = backend.stats()
        assert empty["results"] == 0 and empty["traces"] == 0
        backend.save_result(DIGEST_A, {"v": 1})
        backend.save_trace(DIGEST_B, _tiny_trace())
        stats = backend.stats()
        assert stats["results"] == 1
        assert stats["traces"] == 1
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
        backend.save_result(DIGEST_A, {"v": 1}, meta={"kind": "run", "v": 2})
        backend.save_result(DIGEST_B, {"v": 3}, meta=None)
        assert backend.load_result(DIGEST_A) == {"v": 1}
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

    def test_trace_overwrite_is_last_write_wins(self, backend):
        backend.save_trace(DIGEST_A, _tiny_trace())
        shorter = _tiny_trace()[:1]
        backend.save_trace(DIGEST_A, shorter)
        assert list(backend.load_trace(DIGEST_A)) == list(shorter)

    def test_empty_trace_round_trips(self, backend):
        empty = Trace.from_records([])
        backend.save_trace(DIGEST_A, empty)
        back = backend.load_trace(DIGEST_A)
        assert back is not None
        assert len(back) == 0
        assert back.flags.dtype == np.uint8

    def test_loaded_trace_is_a_private_copy(self, backend):
        backend.save_trace(DIGEST_A, _tiny_trace())
        first = backend.load_trace(DIGEST_A)
        first.addrs[:] = 0
        assert list(backend.load_trace(DIGEST_A)) == list(_tiny_trace())

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
        backend.save_trace(DIGEST_B, _tiny_trace())
        assert backend.load_result(DIGEST_A) == {"v": 2}
        assert list(backend.load_trace(DIGEST_B)) == list(_tiny_trace())

    def test_clear_on_an_empty_store_is_a_noop(self, backend):
        backend.clear()
        backend.clear()
        stats = backend.stats()
        assert stats["results"] == 0 and stats["traces"] == 0

    def test_stats_bytes_grow_with_the_payload(self, backend):
        backend.save_result(DIGEST_A, {"blob": b"x" * 16})
        small = backend.stats()["bytes"]
        backend.save_result(DIGEST_B, {"blob": bytes(range(256)) * 64})
        assert backend.stats()["bytes"] > small


class TestSessionResultTypes:
    """Every artifact type a spec produces must survive the round trip.

    A backend hit has to be bit-for-bit indistinguishable from the fresh
    computation, for ``RunResult`` (RunSpec), ``MultiProgramResult``
    (MixSpec) and ``Trace`` (TraceSpec) alike — this is the pickle-safety
    contract of the whole cache.
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

    def test_trace_round_trips_bitwise(self, backend):
        session = Session(backend=backend)
        spec = TraceSpec("ispec06.mcf", 250)
        fresh = session.trace(spec)
        session.clear(disk=False)
        reloaded = session.trace(spec)
        assert reloaded is not fresh
        assert list(reloaded) == list(fresh)

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

    def test_second_session_is_served_a_trace_without_rebuilding(
        self, backend, monkeypatch
    ):
        spec = TraceSpec("ispec06.mcf", 250)
        fresh = Session(backend=backend).trace(spec)
        _refuse_compute(monkeypatch)
        reloaded = Session(backend=backend).trace(spec)
        assert list(reloaded) == list(fresh)
