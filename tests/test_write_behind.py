"""Write-behind saves of ``LocalDirBackend``.

A save pickles its result on the caller's thread and leaves the durable
write to one writer thread per process.  These tests pin when a save is
on disk: when ``Session.run`` returns, at any read of the store in the
process (a load of the same key waits for its write; ``stats``, ``gc``,
``verify`` and ``clear`` wait for every write), and at interpreter
exit.  They also pin what stays on the calling thread.  Most slow every
write down, so that a reader which did not wait would find no file.
"""

import collections
import os
import pickle
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.engine import LocalDirBackend, RunSpec, Session
from repro.engine import session as session_module
from repro.engine.backends import WRITER_THREAD_NAME, flush_writes

DIGEST = "ab" + "0" * 62
SPECS = (
    RunSpec("ispec06.mcf", "none", 300),
    RunSpec("ispec06.mcf", "spp", 300),
    RunSpec("fspec06.sphinx3", "none", 300),
)


@pytest.fixture
def slow_writes(monkeypatch):
    """Every write-behind save sleeps 0.2 s before it writes."""
    atomic_write = LocalDirBackend._atomic_write

    def slow(path, writer):
        time.sleep(0.2)
        atomic_write(path, writer)

    monkeypatch.setattr(LocalDirBackend, "_atomic_write", staticmethod(slow))


def _writers():
    return [t for t in threading.enumerate() if t.name.startswith(WRITER_THREAD_NAME)]


def _stored(root, spec):
    """The result in ``spec``'s file under ``root``, read without the store."""
    with open(LocalDirBackend(root)._result_path(spec.fingerprint()), "rb") as f:
        return pickle.load(f)["result"]


def test_a_batch_is_on_disk_when_run_returns(tmp_path, slow_writes):
    results = Session(cache_dir=tmp_path, jobs=1).run(SPECS)
    for spec, result in zip(SPECS, results):
        assert _stored(tmp_path, spec).to_dict() == result.to_dict()


def test_a_load_waits_for_the_pending_save_of_its_key(tmp_path, slow_writes):
    LocalDirBackend(tmp_path).save_result(DIGEST, {"v": 1})
    # Another instance over the same root, as Session.store builds one
    # per use.
    assert LocalDirBackend(tmp_path).load_result(DIGEST) == {"v": 1}


def test_a_load_gets_the_newer_of_two_saves_of_its_key(tmp_path, slow_writes):
    store = LocalDirBackend(tmp_path)
    store.save_result(DIGEST, "first")
    store.save_result(DIGEST, "second")
    time.sleep(0.3)  # the first write is done, the second still pending
    assert store.load_result(DIGEST) == "second"


def test_a_save_stores_the_result_as_it_was_saved(tmp_path, slow_writes):
    store = LocalDirBackend(tmp_path)
    result = {"v": [1, 2]}
    store.save_result(DIGEST, result)
    result["v"].append(3)
    assert store.load_result(DIGEST) == {"v": [1, 2]}


@pytest.mark.parametrize(
    "read,expect",
    [
        (lambda store: store.stats()["results"], 1),
        (lambda store: store.gc(1 << 30)["kept"], 1),
        (lambda store: store.verify()["ok"], 1),
        (lambda store: store.clear() or store.stats()["results"], 0),
    ],
    ids=["stats", "gc", "verify", "clear"],
)
def test_store_maintenance_waits_for_every_pending_save(tmp_path, slow_writes, read, expect):
    store = LocalDirBackend(tmp_path)
    store.save_result(DIGEST, {"v": 1})
    assert read(store) == expect


def test_a_failed_write_warns_once_and_fails_no_spec(tmp_path, monkeypatch, capsys):
    store = LocalDirBackend(tmp_path)
    store.save_result(DIGEST, "previous")
    flush_writes()

    def no_space(src, dst):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", no_space)
        store.save_result(DIGEST, "next")
        results = Session(cache_dir=tmp_path, jobs=1).run(SPECS)
    fresh = Session(disk_cache=False).run(SPECS)
    assert [r.to_dict() for r in results] == [r.to_dict() for r in fresh]
    assert capsys.readouterr().err.count("not writable") == 1
    assert store.load_result(DIGEST) == "previous"
    assert store.stats()["results"] == 1
    assert not list(tmp_path.rglob(".tmp-*"))


def test_a_process_that_exits_without_waiting_leaves_its_save_whole(tmp_path):
    code = textwrap.dedent(
        f"""
        import time
        from repro.engine.backends import LocalDirBackend

        atomic_write = LocalDirBackend._atomic_write

        def slow(path, writer):
            time.sleep(0.5)
            atomic_write(path, writer)

        LocalDirBackend._atomic_write = staticmethod(slow)
        LocalDirBackend({str(tmp_path)!r}).save_result({DIGEST!r}, list(range(100000)))
        """
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    assert LocalDirBackend(tmp_path).load_result(DIGEST) == list(range(100000))


def test_no_writer_thread_outlives_a_batch_or_meets_a_fork(tmp_path, monkeypatch):
    Session(cache_dir=tmp_path / "a", jobs=1).run(SPECS[0])
    assert _writers() == []
    LocalDirBackend(tmp_path / "other").save_result(DIGEST, 1)
    assert _writers()  # a save outside any batch starts the thread
    at_pool_start = []
    pool = session_module.ProcessPoolExecutor

    def spy(*args, **kwargs):
        at_pool_start.append(_writers())
        return pool(*args, **kwargs)

    monkeypatch.setattr(session_module, "ProcessPoolExecutor", spy)
    results = Session(cache_dir=tmp_path / "b", jobs=2).run(SPECS[1:])
    assert at_pool_start == [[]]
    assert _writers() == []
    for spec, result in zip(SPECS[1:], results):
        assert _stored(tmp_path / "b", spec).to_dict() == result.to_dict()


def test_hooked_store_calls_stay_on_the_calling_thread(tmp_path, monkeypatch):
    """perfbench's ledger times ``save_result`` and ``load_result`` on the
    calling thread's span stack; only the write itself moves."""
    threads = collections.defaultdict(set)

    def recorded(name, fn):
        def call(*args, **kwargs):
            threads[name].add(threading.current_thread().name)
            return fn(*args, **kwargs)

        return call

    for name in ("save_result", "load_result"):
        monkeypatch.setattr(LocalDirBackend, name, recorded(name, getattr(LocalDirBackend, name)))
    monkeypatch.setattr(
        LocalDirBackend,
        "_atomic_write",
        staticmethod(recorded("_atomic_write", LocalDirBackend._atomic_write)),
    )
    Session(cache_dir=tmp_path, jobs=1).run(SPECS)
    caller = threading.current_thread().name
    assert threads["save_result"] == threads["load_result"] == {caller}
    assert threads["_atomic_write"]
    assert all(name.startswith(WRITER_THREAD_NAME) for name in threads["_atomic_write"])
