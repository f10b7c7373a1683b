"""Tests for the session API: specs, backends, isolation, parity.

The acceptance bar for the session design is at the bottom of this
file: a fresh isolated :class:`Session` must produce **bit-identical**
results to the process default session on a small workload × scheme
grid — no hidden state may leak through the memo or store layers.
"""

import dataclasses
import multiprocessing
import os
import pickle

import pytest

from repro import engine
from repro.cpu.system import MultiCoreSystem, SystemConfig
from repro.engine import (
    InMemoryBackend,
    LocalDirBackend,
    MixSpec,
    RunSpec,
    Session,
    StoreBackend,
    TieredBackend,
    TraceSpec,
    default_session,
)
from repro.engine import session as session_module
from repro.engine.backends import flush_writes
from repro.experiments import api
from repro.memory.dram import DramConfig
from repro.workloads.catalog import WORKLOADS, Workload
from repro.workloads.generators import GenContext
from repro.workloads.mixes import build_mix_traces

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="patching what pool workers run needs fork to carry the patch",
)


@pytest.fixture(autouse=True)
def _fresh(tmp_path):
    """Isolated default-session store per test; overrides reset after."""
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path / "default-cache")
    default_session().clear(disk=False)
    engine.reset_config()
    yield
    default_session().clear(disk=False)
    engine.reset_config()
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


class TestSpecs:
    def test_run_spec_canonicalizes_default_dram(self):
        assert RunSpec("w", "spp", 100).dram == DramConfig(speed_grade=2133, channels=1)
        assert RunSpec("w", "spp", 100) == RunSpec("w", "spp", 100, DramConfig())

    def test_mix_spec_canonicalizes(self):
        spec = MixSpec("m", ["a", "b", "c", "d"], "spp", 100)
        assert spec.workloads == ("a", "b", "c", "d")
        assert spec.cores == 4
        assert spec.dram == DramConfig(speed_grade=2133, channels=2)
        assert spec.llc_bytes == 8 * 1024 * 1024

    def test_fingerprint_memo_leaves_equality_hash_and_pickle(self):
        import pickle

        for make in (
            lambda: RunSpec("w", "spp", 100),
            lambda: MixSpec("m", ("a", "b"), "spp", 100),
        ):
            fresh, memoized = make(), make()
            digest = memoized.fingerprint()
            assert memoized.fingerprint() == digest == fresh.fingerprint()
            assert memoized == fresh and hash(memoized) == hash(fresh)
            assert pickle.dumps(memoized) == pickle.dumps(make())
            assert pickle.loads(pickle.dumps(memoized)).fingerprint() == digest

    def test_cold_run_grid_fingerprints_each_spec_once(self, tmp_path, monkeypatch):
        """A cold grid asks for each spec's digest at several stages
        (memo slot, store lookup, save, read-back); the canonical config
        is hashed at most once per spec instance."""
        import importlib

        from repro.engine import specs as specs_mod
        from repro.experiments import api

        # ``repro.engine.fingerprint`` the package attribute is the function.
        fingerprint_mod = importlib.import_module("repro.engine.fingerprint")

        hashed = []
        asked = {}
        real_fingerprint = fingerprint_mod.fingerprint
        real_method = specs_mod._Fingerprinted.fingerprint

        def counting(kind, **fields):
            hashed.append(kind)
            return real_fingerprint(kind, **fields)

        def tracking(spec):
            asked[id(spec)] = spec  # held, so no id is reused
            return real_method(spec)

        monkeypatch.setattr(fingerprint_mod, "fingerprint", counting)
        monkeypatch.setattr(specs_mod._Fingerprinted, "fingerprint", tracking)
        session = Session(jobs=1, cache_dir=tmp_path / "store")
        workloads, schemes = ["ispec06.mcf", "hpc.npb-cg"], ["none", "spp"]
        grid = api.run_grid(session, workloads, schemes, 300)
        for (workload, scheme), result in grid.items():
            assert session.run(RunSpec(workload, scheme, 300)) is result
        assert hashed.count("run") == 2 * len(grid)  # the grid's specs, then the read-back's
        assert len(hashed) <= len(asked)

    def test_mix_fingerprint_sensitive_to_llc(self):
        spec = MixSpec("m", ("a", "b"), "spp", 100)
        smaller = MixSpec("m", ("a", "b"), "spp", 100, llc_bytes=1 << 20)
        assert spec.fingerprint() != smaller.fingerprint()

    def test_specs_are_immutable_and_hashable(self):
        spec = RunSpec("w", "spp", 100)
        with pytest.raises(Exception):
            spec.length = 200
        assert {spec: 1}[RunSpec("w", "spp", 100)] == 1

    def test_fingerprints_match_legacy_functions(self):
        dram = DramConfig(speed_grade=2400, channels=2)
        run = RunSpec("w", "spp", 100, dram, 1 << 20, True)
        assert run.fingerprint() == engine.run_fingerprint(
            "w", "spp", 100, dram, 1 << 20, True
        )
        mix = MixSpec("m", ("a", "b"), "spp", 50, dram)
        assert mix.fingerprint() == engine.mix_fingerprint("m", ["a", "b"], "spp", 50, dram)

    def test_with_scheme_preserves_machine(self):
        spec = RunSpec("w", "spp", 100, llc_bytes=1 << 20)
        other = spec.with_scheme("bop")
        assert other.scheme == "bop"
        assert other.llc_bytes == spec.llc_bytes
        assert other.workload == spec.workload


class TestSessionRun:
    def test_single_spec_returns_result(self):
        session = Session(disk_cache=False)
        result = session.run(RunSpec("ispec06.mcf", "none", 400))
        assert result.ipc > 0

    def test_memo_identity(self):
        session = Session(disk_cache=False)
        spec = RunSpec("ispec06.mcf", "none", 400)
        assert session.run(spec) is session.run(spec)

    def test_batch_order_and_dedup(self):
        session = Session(disk_cache=False)
        spec_a = RunSpec("ispec06.mcf", "none", 400)
        spec_b = RunSpec("hpc.linpack", "none", 400)
        a1, b, a2 = session.run([spec_a, spec_b, spec_a])
        assert a1 is a2
        assert a1 is not b
        assert a1.ipc != b.ipc

    def test_mixed_kinds_in_one_batch(self):
        session = Session(disk_cache=False)
        run, mix = session.run(
            [
                RunSpec("ispec06.mcf", "none", 300),
                MixSpec("m0", ("ispec06.mcf",) * 4, "none", 200),
            ]
        )
        assert run.ipc > 0
        assert len(mix.per_core) == 4

    def test_parallel_matches_sequential(self):
        specs = [
            RunSpec(w, s, 400)
            for w in ("ispec06.mcf", "hpc.linpack")
            for s in ("none", "spp")
        ]
        sequential = [r.to_dict() for r in Session(disk_cache=False).run(specs)]
        parallel = [
            r.to_dict() for r in Session(disk_cache=False).run(specs, jobs=2)
        ]
        assert parallel == sequential

    def test_bad_spec_type_rejected(self):
        with pytest.raises(TypeError):
            Session(disk_cache=False).run(["not a spec"])


class TestSessionTrace:
    """``Session.trace`` serves traces from the session's memo, else
    builds them; no store is involved."""

    def test_workload_and_length_form_shares_the_memo(self):
        session = Session(disk_cache=False)
        trace = session.trace(TraceSpec("ispec06.mcf", 300))
        assert session.trace("ispec06.mcf", 300) is trace

    @pytest.mark.parametrize(
        "field, value", [("workload", "hpc.linpack"), ("length", 301), ("copy", 1)]
    )
    def test_memo_keys_on_every_field(self, field, value):
        session = Session(disk_cache=False)
        base = TraceSpec("ispec06.mcf", 300)
        changed = dataclasses.replace(base, **{field: value})
        first = session.trace(base)
        other = session.trace(changed)
        assert other is not first
        assert list(other) == list(WORKLOADS[changed.workload].build(changed.length, changed.copy))
        assert session.memo_stats()["traces"] == 2

    def test_run_leaves_its_trace_in_the_memo(self, monkeypatch):
        session = Session(disk_cache=False)
        spec = RunSpec("ispec06.mcf", "none", 300)
        session.run(spec)

        def refuse(*args, **kwargs):
            raise AssertionError("the run already built this trace")

        monkeypatch.setattr(Workload, "build", refuse)
        assert len(session.trace(spec.trace_spec)) == spec.length

    def test_pool_workers_read_the_default_session_memo(self, monkeypatch):
        """Forked pool workers inherit the default session, and a worker
        takes its traces from that session's memo."""
        spec = RunSpec("hpc.linpack", "none", 280)
        default_session().trace(spec.trace_spec)

        def refuse(*args, **kwargs):
            raise AssertionError("the default session already built this trace")

        monkeypatch.setattr(Workload, "build", refuse)
        assert session_module._worker_simulate(spec).ipc > 0

    @staticmethod
    def _count_generations(monkeypatch):
        """Count every trace generated, at the generator itself."""
        built = []
        build = GenContext.build

        def counting(ctx):
            built.append(ctx)
            return build(ctx)

        monkeypatch.setattr(GenContext, "build", counting)
        return built

    MIX_SCHEMES = ("none", "spp", "spp+dspatch")

    def test_a_mix_batch_generates_each_core_trace_once(self, monkeypatch):
        session = Session(disk_cache=False, jobs=1)
        built = self._count_generations(monkeypatch)
        session.run([MixSpec("homo", ("ispec06.mcf",) * 4, s, 300) for s in self.MIX_SCHEMES])
        assert len(built) == 4

    def test_alone_runs_and_mixes_share_one_memo(self, monkeypatch):
        session = Session(disk_cache=False, jobs=1)
        built = self._count_generations(monkeypatch)
        api.warm_mix_grid(session, [("homo", ["ispec06.mcf"] * 4)], self.MIX_SCHEMES, 300)
        assert session.memo_stats() == {"traces": 4, "runs": 1, "mixes": 3}
        assert len(built) == 4

    def test_a_mix_runs_on_the_mix_builder_traces(self):
        names = ("ispec06.mcf", "hpc.linpack", "ispec06.mcf", "cloud.bigbench")
        spec = MixSpec("m", names, "spp", 300)
        direct = MultiCoreSystem(SystemConfig.multi_programmed("spp")).run(
            build_mix_traces(list(names), 300)
        )
        assert pickle.dumps(Session(disk_cache=False).run(spec)) == pickle.dumps(direct)


class TestSessionIsolation:
    def test_sessions_never_share_memos(self, tmp_path):
        s1 = Session(cache_dir=tmp_path / "one")
        s2 = Session(cache_dir=tmp_path / "two")
        spec = RunSpec("ispec06.mcf", "none", 400)
        r1 = s1.run(spec)
        assert s2.memo_stats() == {"traces": 0, "runs": 0, "mixes": 0}
        r2 = s2.run(spec)
        assert r1 is not r2
        assert r1.to_dict() == r2.to_dict()

    def test_sessions_never_share_stores(self, tmp_path):
        s1 = Session(cache_dir=tmp_path / "one")
        s2 = Session(cache_dir=tmp_path / "two")
        s1.run(RunSpec("ispec06.mcf", "none", 400))
        assert s1.store.stats()["results"] == 1
        assert s2.store.stats()["results"] == 0

    def test_clear_scopes_to_one_session(self, tmp_path):
        s1 = Session(cache_dir=tmp_path / "one")
        s2 = Session(cache_dir=tmp_path / "two")
        spec = RunSpec("ispec06.mcf", "none", 400)
        s1.run(spec)
        s2.run(spec)
        s1.clear()
        assert s1.memo_stats()["runs"] == 0
        assert s1.store.stats()["results"] == 0
        assert s2.memo_stats()["runs"] == 1
        assert s2.store.stats()["results"] == 1

    def test_explicit_session_ignores_global_configure(self, tmp_path):
        engine.configure(cache_dir=tmp_path / "global")
        session = Session(cache_dir=tmp_path / "mine")
        session.run(RunSpec("ispec06.mcf", "none", 400))
        assert LocalDirBackend(tmp_path / "mine").stats()["results"] == 1
        assert LocalDirBackend(tmp_path / "global").stats()["results"] == 0


class TestInMemoryBackend:
    def test_is_a_store_backend(self):
        assert isinstance(InMemoryBackend(), StoreBackend)
        assert isinstance(LocalDirBackend("/tmp/x"), StoreBackend)

    def test_run_round_trip(self):
        backend = InMemoryBackend()
        session = Session(backend=backend)
        spec = RunSpec("ispec06.mcf", "none", 400)
        first = session.run(spec)
        session.clear(disk=False)
        second = session.run(spec)
        assert second is not first  # backend round-trip, not the memo
        assert second.to_dict() == first.to_dict()

    def test_trace_round_trip(self):
        backend = InMemoryBackend()
        session = Session(backend=backend)
        first = session.trace(TraceSpec("ispec06.mcf", 300))
        session.clear(disk=False)
        second = session.trace(TraceSpec("ispec06.mcf", 300))
        assert second is not first
        assert list(second) == list(first)

    def test_mix_round_trip(self):
        backend = InMemoryBackend()
        session = Session(backend=backend)
        spec = MixSpec("m0", ("ispec06.mcf",) * 4, "none", 200)
        first = session.run(spec)
        session.clear(disk=False)
        second = session.run(spec)
        assert second is not first
        assert [c.to_dict() for c in second.per_core] == [
            c.to_dict() for c in first.per_core
        ]

    def test_clear_and_stats(self):
        backend = InMemoryBackend()
        backend.save_result("ab", {"x": 1})
        stats = backend.stats()
        assert stats["results"] == 1 and stats["bytes"] > 0
        backend.clear()
        assert backend.load_result("ab") is None
        assert backend.stats()["results"] == 0

    def test_parallel_run_reads_explicit_backend_without_pool(self, monkeypatch):
        """Backend hits must be served in the parent — no pool, no
        recompute."""
        backend = InMemoryBackend()
        session = Session(backend=backend)
        specs = [
            RunSpec("ispec06.mcf", "none", 400),
            RunSpec("hpc.linpack", "none", 400),
        ]
        first = [r.to_dict() for r in session.run(specs)]
        session.clear(disk=False)

        from repro.engine import session as session_mod

        def _no_pool(*args, **kwargs):
            raise AssertionError("pool spawned despite full backend coverage")

        monkeypatch.setattr(session_mod, "ProcessPoolExecutor", _no_pool)
        second = [r.to_dict() for r in session.run(specs, jobs=2)]
        assert second == first

    def test_parallel_run_persists_to_explicit_backend(self):
        """Workers never see the store: the session saves pool results
        itself, so an in-process backend fills up as a disk store does."""
        backend = InMemoryBackend()
        session = Session(backend=backend)
        specs = [
            RunSpec("ispec06.mcf", "none", 400),
            RunSpec("hpc.linpack", "none", 400),
        ]
        first = [r.to_dict() for r in session.run(specs, jobs=2)]
        assert backend.stats()["results"] == 2
        session.clear(disk=False)
        second = [r.to_dict() for r in session.run(specs)]  # backend hits
        assert second == first


class TestPooledStore:
    """Only the session touches its store: it probes every spec and saves
    every computed result in its own process; pool workers only simulate."""

    SPECS = [RunSpec("ispec06.mcf", "none", 400), RunSpec("hpc.linpack", "none", 400)]

    @pytest.mark.parametrize("explicit", [False, True], ids=["cache-dir", "backend"])
    def test_a_warm_pooled_batch_starts_no_pool(self, tmp_path, monkeypatch, explicit):
        cold = [r.to_dict() for r in Session(cache_dir=tmp_path).run(self.SPECS)]

        def _no_pool(*args, **kwargs):
            raise AssertionError("a pool started for a batch of store hits")

        monkeypatch.setattr(session_module, "ProcessPoolExecutor", _no_pool)
        if explicit:
            warm = Session(backend=LocalDirBackend(tmp_path), jobs=2)
        else:
            warm = Session(cache_dir=tmp_path, jobs=2)
        assert [r.to_dict() for r in warm.run(self.SPECS)] == cold

    @fork_only
    def test_pool_workers_never_touch_the_store(self, tmp_path, monkeypatch):
        parent = os.getpid()
        pools = []

        def parent_only(name):
            method = getattr(LocalDirBackend, name)

            def call(self, *args, **kwargs):
                assert os.getpid() == parent, f"a pool worker called {name}"
                return method(self, *args, **kwargs)

            return call

        for name in ("load_result", "save_result"):
            monkeypatch.setattr(LocalDirBackend, name, parent_only(name))
        pool = session_module.ProcessPoolExecutor

        def spy(*args, **kwargs):
            pools.append(kwargs)
            return pool(*args, **kwargs)

        monkeypatch.setattr(session_module, "ProcessPoolExecutor", spy)
        results = Session(cache_dir=tmp_path, jobs=2).run(self.SPECS)
        assert len(pools) == 1
        monkeypatch.undo()
        store = LocalDirBackend(tmp_path)
        for spec, result in zip(self.SPECS, results):
            assert store.load_result(spec.fingerprint()).to_dict() == result.to_dict()

    def test_a_raising_spec_leaves_the_finished_one_stored(self, tmp_path):
        """The spec after the one that raised still finished: it is saved
        before ``Session.run`` raises."""
        good = self.SPECS[0]
        batch = [RunSpec("no.such-workload", "none", 400), good]
        with pytest.raises(KeyError, match="no.such-workload"):
            Session(cache_dir=tmp_path, jobs=2).run(batch)
        alone = Session(disk_cache=False).run(good)
        assert LocalDirBackend(tmp_path).load_result(good.fingerprint()).to_dict() == (
            alone.to_dict()
        )


class TestTieredBackend:
    def test_reads_through_and_promotes(self, tmp_path):
        shared = LocalDirBackend(tmp_path / "shared")
        # Another host populated the shared tier.
        Session(backend=shared).run(RunSpec("ispec06.mcf", "none", 400))
        assert shared.stats()["results"] == 1

        local = LocalDirBackend(tmp_path / "local")
        tiered = TieredBackend(local, shared)
        session = Session(backend=tiered)
        result = session.run(RunSpec("ispec06.mcf", "none", 400))
        assert result.ipc > 0
        # The shared hit was promoted into the local tier.
        assert local.stats()["results"] == 1

    def test_promoted_result_is_bit_identical(self, tmp_path):
        shared = LocalDirBackend(tmp_path / "shared")
        origin = Session(backend=shared).run(RunSpec("ispec06.mcf", "none", 400))
        tiered = Session(
            backend=TieredBackend(LocalDirBackend(tmp_path / "local"), shared)
        )
        assert tiered.run(RunSpec("ispec06.mcf", "none", 400)).to_dict() == origin.to_dict()

    def test_saves_only_touch_local(self, tmp_path):
        shared = LocalDirBackend(tmp_path / "shared")
        local = LocalDirBackend(tmp_path / "local")
        session = Session(backend=TieredBackend(local, shared))
        session.run(RunSpec("hpc.linpack", "none", 400))
        assert local.stats()["results"] == 1
        assert shared.stats()["results"] == 0

    def test_clear_preserves_shared(self, tmp_path):
        shared = LocalDirBackend(tmp_path / "shared")
        Session(backend=shared).run(RunSpec("ispec06.mcf", "none", 400))
        local = LocalDirBackend(tmp_path / "local")
        session = Session(backend=TieredBackend(local, shared))
        session.run(RunSpec("ispec06.mcf", "none", 400))
        session.clear()
        assert local.stats()["results"] == 0
        assert shared.stats()["results"] == 1

    def test_shared_tier_loads_do_not_touch_mtimes(self, tmp_path):
        """Readers must not rewrite mtimes on the read-only shared mount
        (its owner's LRU eviction order is not ours)."""
        writer = LocalDirBackend(tmp_path / "shared")
        writer.save_result("ab" + "0" * 62, {"x": 1})
        flush_writes()  # saves are write-behind: on disk before it is aged
        path = writer._result_path("ab" + "0" * 62)
        os.utime(path, (1000, 1000))
        reader = LocalDirBackend(tmp_path / "shared", touch_on_load=False)
        assert reader.load_result("ab" + "0" * 62) == {"x": 1}
        assert path.stat().st_mtime == 1000

    def test_config_shared_tier_is_no_touch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHARED_CACHE", str(tmp_path / "shared"))
        store = engine.active_store()
        assert store.local.touch_on_load is True
        assert store.shared.touch_on_load is False

    def test_stats_reports_both_tiers(self, tmp_path):
        shared = LocalDirBackend(tmp_path / "shared")
        Session(backend=shared).run(RunSpec("ispec06.mcf", "none", 400))
        tiered = TieredBackend(LocalDirBackend(tmp_path / "local"), shared)
        stats = tiered.stats()
        assert stats["results"] == 0
        assert stats["shared_results"] == 1


class TestSharedCacheConfig:
    def test_env_shared_cache_builds_tiered_backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHARED_CACHE", str(tmp_path / "shared"))
        store = engine.active_store()
        assert isinstance(store, TieredBackend)

    def test_configure_shared_cache(self, tmp_path):
        engine.configure(shared_cache_dir=tmp_path / "shared")
        cfg = engine.current_config()
        assert cfg.shared_cache_dir == tmp_path / "shared"
        assert isinstance(engine.active_store(), TieredBackend)


class TestSessionParity:
    """Acceptance: isolated sessions bit-identical to the default one."""

    GRID_WORKLOADS = ("ispec06.mcf", "hpc.linpack", "sysmark.excel")
    GRID_SCHEMES = ("none", "spp", "dspatch")
    LENGTH = 500

    def test_fresh_session_matches_default_bitwise(self, tmp_path):
        reference = {
            (w, s): default_session().run(RunSpec(w, s, self.LENGTH)).to_dict()
            for w in self.GRID_WORKLOADS
            for s in self.GRID_SCHEMES
        }
        session = Session(cache_dir=tmp_path / "fresh-session")
        specs = [
            RunSpec(w, s, self.LENGTH)
            for w in self.GRID_WORKLOADS
            for s in self.GRID_SCHEMES
        ]
        results = session.run(specs)
        for spec, result in zip(specs, results):
            assert result.to_dict() == reference[(spec.workload, spec.scheme)], spec

    def test_fresh_session_matches_default_mix_bitwise(self, tmp_path):
        names = ("ispec06.mcf", "hpc.linpack", "ispec06.mcf", "hpc.linpack")
        reference = default_session().run(MixSpec("m0", names, "spp", 200))
        session = Session(cache_dir=tmp_path / "fresh-session")
        result = session.run(MixSpec("m0", names, "spp", 200))
        assert [c.to_dict() for c in result.per_core] == [
            c.to_dict() for c in reference.per_core
        ]

    def test_speedup_ratios_accepts_one_shot_iterables(self, tmp_path):
        from repro.experiments import api

        session = Session(cache_dir=tmp_path / "s")
        from_list = api.speedup_ratios(session, "spp", ["hpc.linpack"], 600)
        from_gen = api.speedup_ratios(
            session, "spp", (w for w in ["hpc.linpack"]), 600
        )
        assert from_gen == from_list
        assert from_gen  # the generator input must not yield an empty dict

    def test_fresh_session_trace_matches_default(self, tmp_path):
        reference = default_session().trace(TraceSpec("cloud.bigbench", 400))
        session = Session(cache_dir=tmp_path / "fresh-session")
        trace = session.trace(TraceSpec("cloud.bigbench", 400))
        assert list(trace) == list(reference)
