"""Process-pool crash paths: a dying or raising worker never hangs a run.

``Session._execute`` fans misses across a ``ProcessPoolExecutor``; this
suite pins its two failure legs:

- a worker that **raises** propagates the exception out of
  ``Session.run`` unchanged (a clear error, not a hang, not a silent
  partial result);
- a worker **process that dies** (``os._exit``, modeling an OOM kill or
  segfault) surfaces as ``BrokenProcessPool`` inside ``_execute``, which
  recomputes the specs the pool lost sequentially with a warning — the
  caller still gets complete, correct results.

The death tests monkeypatch the pool's task function and rely on the
``fork`` start method to carry the patch into the children; they skip on
platforms that spawn.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.engine import RunSpec, Session

WORKLOAD = "fspec06.bwaves"

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-death injection needs fork to inherit the monkeypatch",
)


def _die(spec):
    """Pool task that models a worker killed mid-compute."""
    os._exit(3)


def _specs():
    return [
        RunSpec(WORKLOAD, "none", 2000),
        RunSpec(WORKLOAD, "dspatch", 2000),
    ]


class TestRaisingWorker:
    def test_unknown_workload_fails_the_sweep_with_a_clear_error(self, tmp_path):
        """A spec that raises inside a pool worker propagates — quickly,
        with the original exception type — instead of hanging the run."""
        session = Session(cache_dir=tmp_path, jobs=2)
        bad = [
            RunSpec("no.such-workload", "none", 2000),
            RunSpec("no.such-workload", "dspatch", 2000),
        ]
        with pytest.raises(KeyError, match="no.such-workload"):
            session.run(bad)

    def test_one_bad_spec_does_not_hang_a_mixed_batch(self, tmp_path):
        session = Session(cache_dir=tmp_path, jobs=2)
        mixed = [RunSpec(WORKLOAD, "none", 2000), RunSpec("no.such-workload", "none", 2000)]
        with pytest.raises(KeyError):
            session.run(mixed)


@fork_only
class TestDyingWorker:
    def test_dead_worker_process_recomputes_sequentially(
        self, tmp_path, monkeypatch, capsys
    ):
        """Every pool task os._exit()s: the pool breaks, and the session
        must recover by recomputing sequentially — complete results,
        bit-identical to an undisturbed run, plus a warning."""
        reference = Session(cache_dir=tmp_path / "ref").run(_specs())

        import repro.engine.session as session_mod

        monkeypatch.setattr(session_mod, "_worker_simulate", _die)
        session = Session(cache_dir=tmp_path / "crash", jobs=2)
        results = session.run(_specs())

        assert all(
            pickle.dumps(a) == pickle.dumps(b) for a, b in zip(reference, results)
        )
        assert "worker process died" in capsys.readouterr().err

    def test_recovery_persists_results_normally(self, tmp_path, monkeypatch):
        """The sequential recompute path still writes the store: a rerun
        session (healthy pool) gets pure cache hits."""
        import repro.engine.session as session_mod

        monkeypatch.setattr(session_mod, "_worker_simulate", _die)
        cache = tmp_path / "store"
        crashed = Session(cache_dir=cache, jobs=2)
        first = crashed.run(_specs())

        monkeypatch.undo()
        healthy = Session(cache_dir=cache, jobs=2)
        again = healthy.run(_specs())
        assert all(pickle.dumps(a) == pickle.dumps(b) for a, b in zip(first, again))
