"""Tests for the engine subsystem: fingerprints, disk store, parallelism.

The store's failure model is pinned here too: corrupt entries read as
misses and recompute bit-identically, an interrupted write never
publishes, shared-tier hits promote into the local tier exactly once, a
read-only shared tier is never written, and a broken shared tier
degrades to bit-identical local compute.  ``TestSharedDirectoryAcrossHosts``
pins the one cross-host path the engine offers: a mounted
``--shared-cache`` directory another host populated.

The session-wide conftest fixture points ``REPRO_CACHE_DIR`` at a
temporary directory, so these tests exercise the real disk layer without
touching a developer's cache.
"""

import dataclasses
import multiprocessing
import os
import pickle

import pytest

from repro import engine
from repro.cpu.trace import Trace
from repro.engine import (
    EngineConfig,
    InMemoryBackend,
    LocalDirBackend,
    MixSpec,
    RunSpec,
    Session,
    TieredBackend,
    TraceSpec,
    compute,
)
from repro.engine.backends import _DIGEST_RE
from repro.engine.config import KERNEL_CHOICES
from repro.engine.session import default_session
from repro.experiments import api
from repro.memory.dram import DramConfig

# The default session's memo layers: the same dict objects Session.run
# reads and writes, so clearing/inspecting them observes the truth.
_SESSION = default_session()
_RUN_CACHE = _SESSION._run_memo
_MP_CACHE = _SESSION._mix_memo
_TRACE_CACHE = _SESSION._trace_memo

DIGEST = "ab" + "0" * 62


def _run_workload(workload, scheme, length):
    return _SESSION.run(RunSpec(workload, scheme, length))


def _refuse_compute(monkeypatch):
    """Make every simulation entry point fail: only store hits succeed."""

    def refuse(*args, **kwargs):
        raise AssertionError("a store hit must not recompute")

    for name in ("build_trace_artifact", "simulate_run", "simulate_mix"):
        monkeypatch.setattr(compute, name, refuse)


def _same_artifact(a, b):
    """Bit-identity for any artifact kind (traces compare by records)."""
    if isinstance(a, Trace):
        return list(a) == list(b) and a.flags.dtype == b.flags.dtype
    return pickle.dumps(a) == pickle.dumps(b)


def _tree_snapshot(root):
    """Every file under ``root``: relative path -> (bytes, mtime_ns)."""
    return {
        str(p.relative_to(root)): (p.read_bytes(), p.stat().st_mtime_ns)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _tmp_files(root):
    return list(root.rglob(".tmp-*"))


@pytest.fixture(autouse=True)
def _fresh(tmp_path):
    """Isolated store per test; engine overrides reset afterwards."""
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    _SESSION.clear(memory=True, disk=False)
    engine.reset_config()
    yield
    _SESSION.clear(memory=True, disk=False)
    engine.reset_config()
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


class TestFingerprint:
    def test_stable_within_process(self):
        dram = DramConfig()
        a = engine.run_fingerprint("w", "spp", 100, dram, 2 << 20, False)
        b = engine.run_fingerprint("w", "spp", 100, dram, 2 << 20, False)
        assert a == b

    def test_sensitive_to_every_field(self):
        dram = DramConfig()
        base = engine.run_fingerprint("w", "spp", 100, dram, 2 << 20, False)
        assert engine.run_fingerprint("w2", "spp", 100, dram, 2 << 20, False) != base
        assert engine.run_fingerprint("w", "bop", 100, dram, 2 << 20, False) != base
        assert engine.run_fingerprint("w", "spp", 200, dram, 2 << 20, False) != base
        assert engine.run_fingerprint("w", "spp", 100, dram, 1 << 20, False) != base
        assert engine.run_fingerprint("w", "spp", 100, dram, 2 << 20, True) != base
        other_dram = DramConfig(speed_grade=2400, channels=2)
        assert engine.run_fingerprint("w", "spp", 100, other_dram, 2 << 20, False) != base

    def test_kind_separates_namespaces(self):
        assert engine.fingerprint("a", x=1) != engine.fingerprint("b", x=1)

    def test_salt_embedded(self):
        # The salt covers simulator sources; same process -> same salt.
        assert engine.code_salt() == engine.code_salt()
        assert len(engine.code_salt()) == 16

    def test_field_order_does_not_matter(self):
        assert engine.fingerprint("k", a=1, b=[2, 3]) == engine.fingerprint(
            "k", b=[2, 3], a=1
        )

    def test_unfingerprintable_values_are_rejected(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            engine.fingerprint("k", value=object())

    @pytest.mark.parametrize(
        "spec",
        [
            TraceSpec("ispec06.mcf", 300),
            RunSpec("ispec06.mcf", "dspatch", 300),
            MixSpec("m0", ("ispec06.mcf",) * 4, "dspatch", 150),
        ],
        ids=["trace", "run", "mix"],
    )
    def test_spec_fingerprints_are_valid_store_keys(self, spec, tmp_path):
        """Every digest a spec produces is a key the store layout accepts:
        a scrub of an entry saved under it reports it healthy, not foreign."""
        digest = spec.fingerprint()
        assert _DIGEST_RE.match(digest)
        store = LocalDirBackend(tmp_path / "s")
        store.save_result(digest, {"v": 1})
        report = store.verify()
        assert report["ok"] == 1 and report["foreign"] == 0

    RUN_FIELD_CHANGES = {
        "workload": "hpc.linpack",
        "scheme": "spp",
        "length": 301,
        "dram": DramConfig(speed_grade=2400, channels=2),
        "llc_bytes": 1 << 20,
        "record_pollution": True,
    }

    @pytest.mark.parametrize("field", sorted(RUN_FIELD_CHANGES))
    def test_run_spec_fingerprint_covers_every_field(self, field):
        base = RunSpec("ispec06.mcf", "none", 300)
        assert dataclasses.replace(base).fingerprint() == base.fingerprint()
        changed = dataclasses.replace(base, **{field: self.RUN_FIELD_CHANGES[field]})
        assert changed.fingerprint() != base.fingerprint()

    MIX_FIELD_CHANGES = {
        "mix_name": "m1",
        "workloads": ("hpc.linpack",) * 4,
        "scheme": "spp",
        "length_per_core": 151,
        "dram": DramConfig(speed_grade=2400, channels=2),
        "llc_bytes": 4 << 20,
    }

    @pytest.mark.parametrize("field", sorted(MIX_FIELD_CHANGES))
    def test_mix_spec_fingerprint_covers_every_field(self, field):
        base = MixSpec("m0", ("ispec06.mcf",) * 4, "none", 150)
        assert dataclasses.replace(base).fingerprint() == base.fingerprint()
        changed = dataclasses.replace(base, **{field: self.MIX_FIELD_CHANGES[field]})
        assert changed.fingerprint() != base.fingerprint()

    def test_mix_fingerprint_follows_core_assignment(self):
        """Which workload runs on which core changes the result, so it
        must change the key too."""
        a = MixSpec("m0", ("ispec06.mcf", "hpc.linpack"), "none", 150)
        b = MixSpec("m0", ("hpc.linpack", "ispec06.mcf"), "none", 150)
        assert a.fingerprint() != b.fingerprint()

    @pytest.mark.parametrize("field, value", [("workload", "hpc.linpack"), ("length", 301)])
    def test_trace_spec_fingerprint_covers_every_field(self, field, value):
        base = TraceSpec("ispec06.mcf", 300)
        changed = dataclasses.replace(base, **{field: value})
        assert changed.fingerprint() != base.fingerprint()

    def test_artifact_kinds_never_share_keys(self):
        """A run and the trace it consumes never collide on a digest."""
        run = RunSpec("ispec06.mcf", "none", 300)
        assert run.trace_spec.fingerprint() != run.fingerprint()


class TestLocalDirBackend:
    def test_result_round_trip(self, tmp_path):
        store = LocalDirBackend(tmp_path / "s")
        store.save_result("ab" + "0" * 62, {"ipc": 1.25}, meta={"kind": "test"})
        assert store.load_result("ab" + "0" * 62) == {"ipc": 1.25}

    def test_missing_is_none(self, tmp_path):
        store = LocalDirBackend(tmp_path / "s")
        assert store.load_result("ff" + "0" * 62) is None

    def test_corrupt_entry_is_miss(self, tmp_path):
        store = LocalDirBackend(tmp_path / "s")
        digest = "cd" + "0" * 62
        store.save_result(digest, 42)
        path = store._result_path(digest)
        path.write_bytes(b"not a pickle")
        assert store.load_result(digest) is None

    def test_trace_round_trip(self, tmp_path):
        store = LocalDirBackend(tmp_path / "s")
        trace = Trace([1, 2], [3, 4], [64, 128], [0, 1])
        store.save_trace("ee" + "0" * 62, trace)
        back = store.load_trace("ee" + "0" * 62)
        assert list(back) == list(trace)

    def test_unwritable_store_degrades_to_no_persist(self, tmp_path, capsys):
        """A broken cache location must never fail the simulation that
        produced the result — saves warn once and become no-ops."""
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        store = LocalDirBackend(blocker)
        store.save_result("ab" + "0" * 62, 1)
        store.save_result("ab" + "0" * 62, 1)  # second save: no second warning
        store.save_trace("cd" + "0" * 62, Trace([0], [1], [64], [0]))
        assert store.load_result("ab" + "0" * 62) is None
        assert capsys.readouterr().err.count("not writable") == 1

    def test_clear_and_stats(self, tmp_path):
        store = LocalDirBackend(tmp_path / "s")
        store.save_result("ab" + "0" * 62, 1)
        store.save_trace("cd" + "0" * 62, Trace([0], [1], [64], [0]))
        stats = store.stats()
        assert stats["results"] == 1 and stats["traces"] == 1 and stats["bytes"] > 0
        store.clear()
        stats = store.stats()
        assert stats["results"] == 0 and stats["traces"] == 0


class TestGarbageCollection:
    @staticmethod
    def _digest(i):
        return f"{i:02x}" + "0" * 62

    def test_noop_when_under_bound(self, tmp_path):
        store = LocalDirBackend(tmp_path / "s")
        store.save_result(self._digest(1), b"x" * 100)
        summary = store.gc(1 << 20)
        assert summary["removed"] == 0
        assert summary["kept"] == 1
        assert store.load_result(self._digest(1)) is not None

    def test_evicts_oldest_mtime_first(self, tmp_path):
        store = LocalDirBackend(tmp_path / "s")
        for i in range(4):
            store.save_result(self._digest(i), b"x" * 4096)
        # Age entries 0 and 1; leave 2 and 3 recent.
        for i in (0, 1):
            path = store._result_path(self._digest(i))
            os.utime(path, (1000 + i, 1000 + i))
        size = store.stats()["bytes"]
        summary = store.gc(size // 2)
        assert summary["removed"] == 2
        assert store.load_result(self._digest(0)) is None
        assert store.load_result(self._digest(1)) is None
        assert store.load_result(self._digest(2)) is not None
        assert store.load_result(self._digest(3)) is not None
        assert summary["remaining_bytes"] <= size // 2

    def test_load_refreshes_recency(self, tmp_path):
        """A hit bumps the artifact's mtime, so recently *used* entries
        survive eviction even when they were written first."""
        store = LocalDirBackend(tmp_path / "s")
        for i in range(3):
            store.save_result(self._digest(i), b"x" * 4096)
            path = store._result_path(self._digest(i))
            os.utime(path, (1000 + i, 1000 + i))
        assert store.load_result(self._digest(0)) is not None  # touch oldest
        summary = store.gc(store.stats()["bytes"] // 2)
        assert summary["removed"] == 2
        assert store.load_result(self._digest(0)) is not None
        assert store.load_result(self._digest(1)) is None
        assert store.load_result(self._digest(2)) is None

    def test_covers_traces_too(self, tmp_path):
        store = LocalDirBackend(tmp_path / "s")
        store.save_trace(self._digest(7), Trace([0], [1], [64], [0]))
        path = store._trace_path(self._digest(7))
        os.utime(path, (1000, 1000))
        summary = store.gc(0)
        assert summary["removed"] == 1
        assert store.load_trace(self._digest(7)) is None

    def test_zero_bound_empties_store(self, tmp_path):
        store = LocalDirBackend(tmp_path / "s")
        for i in range(3):
            store.save_result(self._digest(i), i)
        summary = store.gc(0)
        assert summary["removed"] == 3
        assert summary["remaining_bytes"] == 0
        assert store.stats()["bytes"] == 0

    def test_negative_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            LocalDirBackend(tmp_path / "s").gc(-1)

    def test_in_progress_temp_files_not_evicted(self, tmp_path):
        """gc racing a live _atomic_write must not yank the temp file."""
        store = LocalDirBackend(tmp_path / "s")
        store.save_result(self._digest(1), b"x" * 4096)
        tmp = store._result_path(self._digest(2)).parent / ".tmp-inflight"
        tmp.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(b"y" * 4096)
        summary = store.gc(0)
        assert tmp.exists()
        assert summary["removed"] == 1  # only the real artifact went

    def test_orphaned_temp_files_reclaimed(self, tmp_path):
        """Temp files older than the grace period are dead writers'
        leftovers and must be evictable, or gc could never reach the
        requested bound."""
        store = LocalDirBackend(tmp_path / "s")
        tmp = store._result_path(self._digest(2)).parent / ".tmp-orphan"
        tmp.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(b"y" * 4096)
        os.utime(tmp, (1000, 1000))  # far older than the grace period
        summary = store.gc(0)
        assert not tmp.exists()
        assert summary["removed"] == 1


class TestDiskCorruption:
    """On-disk damage in LocalDirBackend reads as a miss and recomputes."""

    def test_truncated_pickle_is_a_miss(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.save_result(DIGEST, {"v": 1})
        path = backend._result_path(DIGEST)
        path.write_bytes(path.read_bytes()[:11])
        assert backend.load_result(DIGEST) is None

    def test_garbage_pickle_is_a_miss(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.save_result(DIGEST, {"v": 1})
        backend._result_path(DIGEST).write_bytes(b"\x80\x05garbage")
        assert backend.load_result(DIGEST) is None

    def test_truncated_npz_is_a_miss(self, tmp_path):
        # A truncated .npz raises zipfile.BadZipFile — which is not an
        # OSError; the load must swallow it as a miss, not crash.
        session = Session(backend=LocalDirBackend(tmp_path))
        spec = TraceSpec("ispec06.mcf", 250)
        fresh = session.trace(spec)
        path = session.store._trace_path(spec.fingerprint())
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert session.store.load_trace(spec.fingerprint()) is None
        # ...and the session recomputes right through it.
        session.clear(disk=False)
        assert list(session.trace(spec)) == list(fresh)

    def test_garbage_npz_is_a_miss(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        path = backend._trace_path(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"PK\x03\x04 but not really a zip")
        assert backend.load_trace(DIGEST) is None

    def test_corrupt_result_is_recomputed_bitwise(self, tmp_path):
        session = Session(backend=LocalDirBackend(tmp_path))
        spec = RunSpec("ispec06.mcf", "none", 300)
        fresh = session.run(spec)
        path = session.store._result_path(spec.fingerprint())
        path.write_bytes(b"rotten")
        session.clear(disk=False)
        assert session.run(spec).to_dict() == fresh.to_dict()


class _Counting:
    """StoreBackend wrapper counting calls per method (promotion audits)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = {}

    def _count(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    @property
    def shared_across_processes(self):
        return self.inner.shared_across_processes

    def load_result(self, digest):
        self._count("load_result")
        return self.inner.load_result(digest)

    def save_result(self, digest, result, meta=None):
        self._count("save_result")
        return self.inner.save_result(digest, result, meta=meta)

    def load_trace(self, digest):
        self._count("load_trace")
        return self.inner.load_trace(digest)

    def save_trace(self, digest, trace):
        self._count("save_trace")
        return self.inner.save_trace(digest, trace)

    def clear(self):
        self._count("clear")
        return self.inner.clear()

    def stats(self):
        self._count("stats")
        return self.inner.stats()


class TestTieredPromotion:
    def test_shared_hit_promotes_to_local_exactly_once(self):
        shared = _Counting(InMemoryBackend())
        shared.inner.save_result(DIGEST, {"v": 1})
        local = _Counting(InMemoryBackend())
        tiered = TieredBackend(local, shared)
        assert tiered.load_result(DIGEST) == {"v": 1}
        assert tiered.load_result(DIGEST) == {"v": 1}
        # First load read through and promoted; the second was served
        # locally without touching the shared tier again.
        assert local.calls["save_result"] == 1
        assert shared.calls["load_result"] == 1

    def test_read_only_shared_tier_is_never_written(self):
        shared = _Counting(InMemoryBackend())
        shared.inner.save_result(DIGEST, {"v": 1})
        local = _Counting(InMemoryBackend())
        tiered = TieredBackend(local, shared)  # default: shared read-only
        tiered.load_result(DIGEST)  # promotion
        tiered.save_result("cd" + "0" * 62, {"v": 2})  # ordinary save
        tiered.clear()
        assert "save_result" not in shared.calls
        assert "save_trace" not in shared.calls
        assert "clear" not in shared.calls

    def test_promotion_survives_failing_local_tier(self, tmp_path):
        """A read-only local tier degrades promotion, never the load."""
        shared = LocalDirBackend(tmp_path / "shared")
        shared.save_result(DIGEST, {"v": 1})
        local_root = tmp_path / "frozen"
        local_root.mkdir()
        local = LocalDirBackend(local_root)
        local_root.chmod(0o500)  # unwritable: promotion will fail
        try:
            tiered = TieredBackend(local, shared)
            assert tiered.load_result(DIGEST) == {"v": 1}
        finally:
            local_root.chmod(0o700)


class TestDiskPersistence:
    def test_run_survives_memory_cache_clear(self):
        first = _run_workload("ispec06.mcf", "none", 400)
        _RUN_CACHE.clear()
        _TRACE_CACHE.clear()
        second = _run_workload("ispec06.mcf", "none", 400)
        # Distinct objects (disk round-trip), bit-identical payloads.
        assert second is not first
        assert second.to_dict() == first.to_dict()

    def test_trace_survives_memory_cache_clear(self):
        first = _SESSION.trace(TraceSpec("ispec06.mcf", 300))
        _TRACE_CACHE.clear()
        second = _SESSION.trace(TraceSpec("ispec06.mcf", 300))
        assert second is not first
        assert list(second) == list(first)

    def test_mix_survives_memory_cache_clear(self):
        spec = MixSpec("m0", ("ispec06.mcf",) * 4, "none", 200)
        first = _SESSION.run(spec)
        _MP_CACHE.clear()
        second = _SESSION.run(spec)
        assert second is not first
        assert [c.to_dict() for c in second.per_core] == [
            c.to_dict() for c in first.per_core
        ]

    def test_no_cache_mode_skips_disk(self):
        engine.configure(disk_cache=False)
        assert engine.active_store() is None
        _run_workload("ispec06.mcf", "none", 400)
        engine.reset_config()
        store = engine.active_store()
        assert store is not None
        assert store.stats()["results"] == 0


class TestSessionClearInvalidation:
    def test_both_layers_invalidate_together(self):
        """Session.clear() must drop memory AND disk, so a later call
        can never observe a stale cross-process result."""
        _run_workload("ispec06.mcf", "none", 400)
        store = engine.active_store()
        assert store.stats()["results"] == 1
        _SESSION.clear()
        assert not _RUN_CACHE and not _TRACE_CACHE and not _MP_CACHE
        assert store.stats()["results"] == 0
        assert store.stats()["traces"] == 0

    def test_memory_only_clear_preserves_disk(self):
        _run_workload("ispec06.mcf", "none", 400)
        store = engine.active_store()
        _SESSION.clear(memory=True, disk=False)
        assert store.stats()["results"] == 1


class TestParallelExecution:
    def test_sequential_and_parallel_identical(self):
        workloads = ["ispec06.mcf", "hpc.linpack"]
        api.run_grid(_SESSION, workloads, ["none", "spp"], 400, jobs=1)
        sequential = {k: v.to_dict() for k, v in _RUN_CACHE.items()}
        _SESSION.clear()
        api.run_grid(_SESSION, workloads, ["none", "spp"], 400, jobs=2)
        parallel = {k: v.to_dict() for k, v in _RUN_CACHE.items()}
        assert parallel == sequential

    def test_run_preserves_input_order(self):
        specs = [
            RunSpec("ispec06.mcf", "none", 300, DramConfig(), 2 << 20, False),
            RunSpec("hpc.linpack", "none", 300, DramConfig(), 2 << 20, False),
        ]
        results = Session().run(specs, jobs=2)
        assert len(results) == 2
        direct = [
            _run_workload("ispec06.mcf", "none", 300),
            _run_workload("hpc.linpack", "none", 300),
        ]
        assert [r.to_dict() for r in results] == [r.to_dict() for r in direct]


class TestEngineConfig:
    def test_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cfg = engine.current_config()
        assert cfg.jobs == 1
        assert cfg.disk_cache is True

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cfg = engine.current_config()
        assert cfg.jobs == 4
        assert cfg.disk_cache is False

    def test_configure_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        engine.configure(jobs=2, disk_cache=True)
        cfg = engine.current_config()
        assert cfg.jobs == 2
        assert cfg.disk_cache is True

    def test_session_config_carries_the_kernel(self):
        """Pool workers are configured from ``Session.config()``, so it
        must carry the process kernel choice, not reset it to ``auto``."""
        engine.configure(kernel="object")
        assert Session().config().kernel == "object"

    @pytest.mark.parametrize(
        "value, jobs",
        [("4", 4), ("1", 1), ("0", 1), ("-2", 1), ("many", 1), ("", 1)],
    )
    def test_repro_jobs_env_is_clamped_to_at_least_one(self, monkeypatch, value, jobs):
        monkeypatch.setenv("REPRO_JOBS", value)
        assert engine.current_config().jobs == jobs

    @pytest.mark.parametrize(
        "value, disk_cache", [("1", False), ("0", True), ("", True), ("true", True)]
    )
    def test_only_repro_no_cache_1_disables_the_store(
        self, monkeypatch, value, disk_cache
    ):
        monkeypatch.setenv("REPRO_NO_CACHE", value)
        assert engine.current_config().disk_cache is disk_cache

    @pytest.mark.parametrize("kernel", KERNEL_CHOICES)
    def test_repro_kernel_env_accepts_every_choice(self, monkeypatch, kernel):
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        assert engine.current_config().kernel == kernel

    def test_configure_rejects_an_unknown_kernel(self):
        before = engine.current_config()
        with pytest.raises(ValueError, match="kernel must be one of"):
            engine.configure(kernel="py")
        assert engine.current_config() == before

    def test_empty_shared_cache_env_means_no_shared_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARED_CACHE", "")
        assert engine.current_config().shared_cache_dir is None
        assert isinstance(engine.active_store(), LocalDirBackend)

    def test_reset_config_drops_every_override(self, tmp_path):
        before = engine.current_config()
        engine.configure(
            jobs=before.jobs + 3,
            cache_dir=tmp_path / "elsewhere",
            disk_cache=not before.disk_cache,
            shared_cache_dir=tmp_path / "shared",
            kernel="object" if before.kernel != "object" else "auto",
        )
        assert engine.current_config() != before
        engine.reset_config()
        assert engine.current_config() == before

    @pytest.mark.parametrize(
        "disk_cache, shared, expected",
        [
            (False, False, type(None)),
            (False, True, type(None)),
            (True, False, LocalDirBackend),
            (True, True, TieredBackend),
        ],
        ids=["no-cache", "no-cache-wins-over-shared", "local", "local-over-shared"],
    )
    def test_backend_for_builds_local_or_local_over_shared(
        self, tmp_path, disk_cache, shared, expected
    ):
        cfg = EngineConfig(
            jobs=1,
            cache_dir=tmp_path / "cache",
            disk_cache=disk_cache,
            shared_cache_dir=tmp_path / "shared" if shared else None,
        )
        store = engine.backend_for(cfg)
        assert type(store) is expected
        if expected is LocalDirBackend:
            assert store.root == cfg.cache_dir and store.touch_on_load
        if expected is TieredBackend:
            assert type(store.local) is LocalDirBackend
            assert type(store.shared) is LocalDirBackend
            assert store.local.root == cfg.cache_dir and store.local.touch_on_load
            assert store.shared.root == cfg.shared_cache_dir
            assert not store.shared.touch_on_load
            assert store.shared_across_processes

    @pytest.mark.parametrize(
        "knob, session_value, global_value",
        [
            ("jobs", 3, 2),
            ("cache_dir", "session-cache", "global-cache"),
            ("disk_cache", False, True),
            ("shared_cache_dir", "session-shared", "global-shared"),
        ],
    )
    def test_session_override_beats_configure(
        self, tmp_path, knob, session_value, global_value
    ):
        def resolve(value):
            return tmp_path / value if isinstance(value, str) else value

        engine.configure(**{knob: resolve(global_value)})
        assert getattr(Session(**{knob: resolve(session_value)}).config(), knob) == (
            resolve(session_value)
        )
        # A session without the override tracks the global knob.
        assert getattr(Session().config(), knob) == resolve(global_value)

    def test_explicit_backend_wins_over_disk_cache_false(self):
        backend = InMemoryBackend()
        session = Session(backend=backend, disk_cache=False)
        assert session.store is backend
        session.run(RunSpec("ispec06.mcf", "none", 300))
        assert backend.stats()["results"] == 1


class TestVerifyScrub:
    """`LocalDirBackend.verify`: the loud counterpart of corrupt-as-miss."""

    DIGEST = "ab" + "0" * 62
    DIGEST2 = "cd" + "0" * 62

    @pytest.fixture
    def store(self, tmp_path):
        from repro.engine import LocalDirBackend

        backend = LocalDirBackend(tmp_path / "store")
        backend.save_result(self.DIGEST, {"v": 1})
        backend.save_result(self.DIGEST2, {"v": 2})
        return backend

    def test_clean_store_verifies_clean(self, store):
        report = store.verify()
        assert report["checked"] == 2
        assert report["ok"] == 2
        assert report["corrupt"] == report["foreign"] == 0
        assert report["entries"] == []

    def test_torn_entry_is_reported_corrupt(self, store):
        path = store._result_path(self.DIGEST)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        report = store.verify()
        assert report["corrupt"] == 1 and report["ok"] == 1
        assert report["entries"] == [("corrupt", str(path))]
        assert report["quarantined"] == 0  # reporting never moves files
        assert path.exists()

    def test_misplaced_entry_is_reported_foreign(self, store):
        good = store._result_path(self.DIGEST)
        stray = store.root / "results" / "zz" / good.name
        stray.parent.mkdir(parents=True)
        good.rename(stray)  # wrong shard for its digest
        (store.root / "results" / "no-extension").write_bytes(b"junk")
        report = store.verify()
        assert report["foreign"] == 2

    def test_repair_quarantines_and_restores_honest_misses(self, store):
        path = store._result_path(self.DIGEST)
        path.write_bytes(b"garbage that does not unpickle")
        assert store.load_result(self.DIGEST) is None  # silent miss today
        report = store.verify(repair=True)
        assert report["corrupt"] == 1
        assert report["quarantined"] == 1
        assert not path.exists()
        quarantined = list((store.root / "corrupt").iterdir())
        assert [p.name for p in quarantined] == [path.name]
        assert quarantined[0].read_bytes() == b"garbage that does not unpickle"
        # The healthy entry is untouched and the store verifies clean now.
        assert store.load_result(self.DIGEST2) == {"v": 2}
        assert store.verify()["corrupt"] == 0

    def test_repair_collisions_keep_every_byte(self, store):
        # Two rounds of corruption under the same digest: both rescued
        # copies survive side by side in corrupt/.
        path = store._result_path(self.DIGEST)
        path.write_bytes(b"first corruption")
        store.verify(repair=True)
        store.save_result(self.DIGEST, {"v": 3})
        path.write_bytes(b"second corruption")
        store.verify(repair=True)
        names = sorted(p.name for p in (store.root / "corrupt").iterdir())
        assert names == [path.name, f"{path.name}.1"]

    def test_in_progress_temp_files_are_skipped(self, store):
        (store.root / "results" / "ab" / ".tmp-writer").write_bytes(b"partial")
        report = store.verify()
        assert report["checked"] == 2 and report["ok"] == 2

    def test_trace_entries_are_scrubbed_too(self, store, tmp_path):
        import numpy as np

        from repro.cpu.trace import Trace as _Trace

        trace = _Trace(
            np.array([1], dtype=np.int64),
            np.array([0x400000], dtype=np.int64),
            np.array([0x1000], dtype=np.int64),
            np.array([0], dtype=np.uint8),
        )
        store.save_trace(self.DIGEST, trace)
        assert store.verify()["ok"] == 3
        store._trace_path(self.DIGEST).write_bytes(b"not an npz")
        report = store.verify(repair=True)
        assert report["corrupt"] == 1 and report["quarantined"] == 1

    OTHER = "ef" + "1" * 62

    FOREIGN_PATHS = {
        "uppercase-digest": "results/EF/EF" + "1" * 62 + ".pkl",
        "short-digest": "results/ef/ef11.pkl",
        "non-hex-digest": "results/zz/zz" + "1" * 62 + ".pkl",
        "trace-suffix-under-results": "results/ef/" + OTHER + ".npz",
        "result-suffix-under-traces": "traces/ef/" + OTHER + ".pkl",
        "wrong-shard": "results/ab/" + OTHER + ".pkl",
        "nested-shard": "results/ef/ef/" + OTHER + ".pkl",
        "unsharded": "results/" + OTHER + ".pkl",
    }

    @pytest.mark.parametrize("case", sorted(FOREIGN_PATHS))
    def test_misnamed_entries_are_reported_foreign(self, store, case):
        """Decodable bytes under a name the layout never writes are
        foreign: no load can ever reach them."""
        path = store.root / self.FOREIGN_PATHS[case]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(store._result_path(self.DIGEST).read_bytes())
        report = store.verify()
        assert report["foreign"] == 1 and report["ok"] == 2
        assert report["entries"] == [("foreign", str(path))]
        assert store.verify(repair=True)["quarantined"] == 1
        assert not path.exists()

    UNDECODABLE_RESULTS = {
        "empty": b"",
        "garbage": b"\x80\x05garbage",
        "truncated": None,  # half of a healthy entry
        "not-a-dict": pickle.dumps([1, 2]),
        "dict-without-result": pickle.dumps({"meta": {}}),
    }

    @pytest.mark.parametrize("case", sorted(UNDECODABLE_RESULTS))
    def test_undecodable_results_are_reported_corrupt(self, store, case):
        """The scrub's oracle is the load path: whatever it reports
        corrupt, a load reads as a miss."""
        path = store._result_path(self.DIGEST)
        data = self.UNDECODABLE_RESULTS[case]
        if data is None:
            data = path.read_bytes()[: path.stat().st_size // 2]
        path.write_bytes(data)
        assert store.load_result(self.DIGEST) is None
        report = store.verify()
        assert report["corrupt"] == 1 and report["ok"] == 1
        assert report["entries"] == [("corrupt", str(path))]

    def test_tiered_backend_scrubs_its_local_tier(self, tmp_path):
        from repro.engine import LocalDirBackend, TieredBackend

        local = LocalDirBackend(tmp_path / "local")
        shared = LocalDirBackend(tmp_path / "shared", touch_on_load=False)
        tiered = TieredBackend(local, shared)
        tiered.save_result(self.DIGEST, {"v": 1})
        local._result_path(self.DIGEST).write_bytes(b"torn")
        report = tiered.verify(repair=True)
        assert report["corrupt"] == 1 and report["quarantined"] == 1


class TestAtomicWrites:
    """A write that fails half-way never publishes a torn entry."""

    @staticmethod
    def _disk_full_dump(obj, f, protocol=None):
        f.write(b"\x80\x05partial")
        raise OSError(28, "No space left on device")

    def test_failed_result_write_keeps_the_previous_entry(
        self, tmp_path, monkeypatch, capsys
    ):
        store = LocalDirBackend(tmp_path / "s")
        store.save_result(DIGEST, {"v": 1})
        monkeypatch.setattr(pickle, "dump", self._disk_full_dump)
        store.save_result(DIGEST, {"v": 2})
        monkeypatch.undo()
        assert store.load_result(DIGEST) == {"v": 1}
        assert _tmp_files(store.root) == []
        assert "not writable" in capsys.readouterr().err

    def test_failed_first_result_write_publishes_nothing(self, tmp_path, monkeypatch):
        store = LocalDirBackend(tmp_path / "s")
        monkeypatch.setattr(pickle, "dump", self._disk_full_dump)
        store.save_result(DIGEST, {"v": 1})
        monkeypatch.undo()
        assert store.load_result(DIGEST) is None
        assert store.stats()["results"] == 0
        assert _tmp_files(store.root) == []

    @staticmethod
    def _disk_full_save(trace, path):
        with open(path, "wb") as f:
            f.write(b"PK\x03\x04partial")
        raise OSError(28, "No space left on device")

    def test_failed_trace_write_keeps_the_previous_entry(self, tmp_path, monkeypatch):
        store = LocalDirBackend(tmp_path / "s")
        old = Trace([1, 2], [3, 4], [64, 128], [0, 1])
        store.save_trace(DIGEST, old)
        monkeypatch.setattr(Trace, "save", self._disk_full_save)
        store.save_trace(DIGEST, Trace([9], [9], [9 * 64], [0]))
        monkeypatch.undo()
        assert list(store.load_trace(DIGEST)) == list(old)
        assert _tmp_files(store.root) == []

    def test_failed_first_trace_write_publishes_nothing(self, tmp_path, monkeypatch):
        store = LocalDirBackend(tmp_path / "s")
        monkeypatch.setattr(Trace, "save", self._disk_full_save)
        store.save_trace(DIGEST, Trace([1], [3], [64], [0]))
        monkeypatch.undo()
        assert store.load_trace(DIGEST) is None
        assert store.stats()["traces"] == 0
        assert _tmp_files(store.root) == []


#: Ways a shared tier's entry can be broken: (artifact kind, mangler).
SHARED_FAULTS = {
    "empty-result": ("results", lambda data: b""),
    "truncated-result": ("results", lambda data: data[: len(data) // 2]),
    "garbage-result": ("results", lambda data: b"\x80\x05garbage"),
    "result-without-payload": ("results", lambda data: pickle.dumps({"meta": {}})),
    "empty-trace": ("traces", lambda data: b""),
    "truncated-trace": ("traces", lambda data: data[: len(data) // 2]),
    "garbage-trace": ("traces", lambda data: b"PK\x03\x04garbage"),
}


class TestSharedTierFaults:
    """A broken shared tier costs a recompute, never a wrong answer."""

    @pytest.mark.parametrize("fault", sorted(SHARED_FAULTS))
    def test_corrupt_shared_entry_degrades_to_bit_identical_compute(
        self, tmp_path, fault
    ):
        kind, mangle = SHARED_FAULTS[fault]
        if kind == "results":
            spec = RunSpec("ispec06.mcf", "none", 300)
        else:
            spec = TraceSpec("ispec06.mcf", 300)
        reference = Session(disk_cache=False).run(spec)
        owner = LocalDirBackend(tmp_path / "shared")
        Session(backend=owner).run(spec)
        digest = spec.fingerprint()
        path = owner._result_path(digest) if kind == "results" else owner._trace_path(digest)
        path.write_bytes(mangle(path.read_bytes()))
        broken = path.read_bytes()

        reader = Session(cache_dir=tmp_path / "local", shared_cache_dir=tmp_path / "shared")
        assert _same_artifact(reader.run(spec), reference)
        # The reader never repairs (or otherwise writes) the shared tier;
        # the recomputed artifact lands in its own local tier.
        assert path.read_bytes() == broken
        local = reader.store.local
        load = local.load_result if kind == "results" else local.load_trace
        assert _same_artifact(load(digest), reference)

    def test_missing_shared_root_is_an_empty_tier(self, tmp_path):
        spec = RunSpec("ispec06.mcf", "none", 300)
        reference = Session(disk_cache=False).run(spec)
        reader = Session(cache_dir=tmp_path / "local", shared_cache_dir=tmp_path / "absent")
        assert _same_artifact(reader.run(spec), reference)
        assert reader.store.stats()["shared_results"] == 0
        assert not (tmp_path / "absent").exists()

    def test_shared_root_that_is_a_file_is_an_empty_tier(self, tmp_path):
        spec = RunSpec("ispec06.mcf", "none", 300)
        reference = Session(disk_cache=False).run(spec)
        blocker = tmp_path / "not-a-dir"
        blocker.write_bytes(b"mount point went missing")
        reader = Session(cache_dir=tmp_path / "local", shared_cache_dir=blocker)
        assert _same_artifact(reader.run(spec), reference)
        assert reader.store.stats()["shared_results"] == 0
        assert blocker.read_bytes() == b"mount point went missing"


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="refusing compute in pool workers needs fork to inherit the monkeypatch",
)


class TestSharedDirectoryAcrossHosts:
    """Host A's cache directory, mounted on host B as ``--shared-cache``,
    serves B bit-identical artifacts without recomputing them."""

    SPECS = {
        "run": RunSpec("ispec06.mcf", "dspatch", 300),
        "mix": MixSpec("m0", ("ispec06.mcf",) * 4, "dspatch", 150),
        "trace": TraceSpec("ispec06.mcf", 300),
    }

    @staticmethod
    def _host_b(tmp_path, **kwargs):
        return Session(
            cache_dir=tmp_path / "host-b", shared_cache_dir=tmp_path / "host-a", **kwargs
        )

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_second_host_is_served_without_recomputing(
        self, tmp_path, monkeypatch, kind
    ):
        spec = self.SPECS[kind]
        origin = Session(cache_dir=tmp_path / "host-a").run(spec)
        _refuse_compute(monkeypatch)
        assert _same_artifact(self._host_b(tmp_path).run(spec), origin)

    def test_second_host_never_writes_the_shared_directory(self, tmp_path):
        Session(cache_dir=tmp_path / "host-a").run(self.SPECS["run"])
        before = _tree_snapshot(tmp_path / "host-a")
        host_b = self._host_b(tmp_path)
        host_b.run(self.SPECS["run"])  # a shared hit, promoted locally
        host_b.run(RunSpec("hpc.linpack", "none", 300))  # a miss, computed
        host_b.clear()
        assert _tree_snapshot(tmp_path / "host-a") == before

    def test_promoted_hits_outlive_the_shared_mount(self, tmp_path, monkeypatch):
        spec = self.SPECS["run"]
        origin = Session(cache_dir=tmp_path / "host-a").run(spec)
        self._host_b(tmp_path).run(spec)
        Session(cache_dir=tmp_path / "host-a").clear()  # the mount is gone
        _refuse_compute(monkeypatch)
        again = Session(cache_dir=tmp_path / "host-b").run(spec)
        assert _same_artifact(again, origin)

    @fork_only
    def test_pool_workers_read_the_shared_tier(self, tmp_path, monkeypatch):
        specs = [RunSpec("ispec06.mcf", "none", 300), RunSpec("hpc.linpack", "none", 300)]
        origin = Session(cache_dir=tmp_path / "host-a").run(specs)
        _refuse_compute(monkeypatch)
        pooled = self._host_b(tmp_path, jobs=2).run(specs)
        assert all(_same_artifact(a, b) for a, b in zip(pooled, origin))
        assert LocalDirBackend(tmp_path / "host-b").stats()["results"] == 2

    def test_no_cache_ignores_the_shared_tier(self, tmp_path, monkeypatch):
        spec = self.SPECS["run"]
        origin = Session(cache_dir=tmp_path / "host-a").run(spec)
        session = self._host_b(tmp_path, disk_cache=False)
        assert session.store is None
        _refuse_compute(monkeypatch)
        with pytest.raises(AssertionError, match="must not recompute"):
            session.run(spec)
        monkeypatch.undo()
        assert _same_artifact(session.run(spec), origin)
        assert not (tmp_path / "host-b").exists()
