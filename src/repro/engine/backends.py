"""Pluggable store backends for simulation results.

A backend persists pickled *results* (``RunResult`` /
``MultiProgramResult``) under content-addressed digests (see
:mod:`repro.engine.fingerprint`).  Traces are inputs, not artifacts: a
seeded build is cheaper than loading a stored copy, so sessions memoize
them in the process and rebuild them, never store them.  The
:class:`StoreBackend` protocol is the full surface a
:class:`repro.engine.session.Session` needs; anything implementing it
can be plugged in via ``Session(backend=...)``.

Three implementations ship here:

- :class:`LocalDirBackend` — the on-disk directory store;
- :class:`InMemoryBackend` — a process-local store that round-trips
  artifacts through ``pickle`` bytes, for hermetic tests and ephemeral
  sessions;
- :class:`TieredBackend` — a read-through pair: a writable local backend
  over a read-only shared one (a network mount, a CI artifact dir); the
  content-addressed keys make entries portable across hosts.

:class:`LocalDirBackend` saves are write-behind.  ``save_result``
pickles the result on the caller's thread and hands the bytes to the
process's one writer thread, which makes them durable (fsync, rename,
directory fsync) while the caller simulates the next spec.  Readers
wait for what they depend on: a load waits for a pending write of its
own key, and ``stats``, ``gc``, ``verify`` and ``clear`` wait for every
pending write.  :func:`flush_writes` waits for all of them and ends the
thread; ``Session.run`` calls it before it returns and before it starts
a process pool.  Writes still pending at interpreter exit complete
before the process ends.
"""

import functools
import os
import pickle
import re
import shutil
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Protocol, runtime_checkable

#: Shape of a valid store key: the spec fingerprint, 64 lowercase hex.
_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")


def _fsync_directory(path):
    """Flush a directory's metadata (the rename itself) to disk.

    Best-effort and POSIX-only: without it an ``os.replace`` survives a
    process crash but not a power loss — the file's *bytes* are synced
    separately, this pins the *name*.  Filesystems that refuse directory
    fds (or non-POSIX platforms) degrade silently; the write is still
    crash-atomic, just not power-loss-durable.
    """
    if not hasattr(os, "O_DIRECTORY"):
        return
    try:
        fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


#: Name prefix of the writer thread (tests look for it).
WRITER_THREAD_NAME = "repro-store-writer"


class _WriteBehind:
    """The process's pending ``LocalDirBackend`` writes and their thread.

    One per process, not per backend: ``Session.store`` builds a new
    backend at each use, and a load through one must wait for a save
    through another.  One single-thread executor runs the writes in
    submission order; it starts at the first write after a flush, so a
    process that never saves never starts it.  Its thread is not a
    daemon: at interpreter exit the executor finishes every queued write
    before the process ends.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pool = None
        #: path -> Future of the newest write queued for that path.
        self._pending = {}

    def submit(self, path, blob, on_error):
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(1, thread_name_prefix=WRITER_THREAD_NAME)
            future = self._pool.submit(_write_blob, path, blob, on_error)
            self._pending[path] = future
        # Outside the lock: a write already done runs the callback here.
        future.add_done_callback(functools.partial(self._retire, path))

    def _retire(self, path, future):
        with self._lock:
            if self._pending.get(path) is future:
                del self._pending[path]

    def wait(self, path):
        """Block until every write queued for ``path`` is on disk (writes
        run in order, so the newest one finishing covers the rest)."""
        future = self._pending.get(path)
        if future is not None:
            future.result()

    def flush(self):
        """Block until every queued write is on disk; end the thread."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def _write_blob(path, blob, on_error):
    """One write-behind save, on the writer thread.  A failure is
    reported and stops no later write: no caller is left to raise to."""
    try:
        LocalDirBackend._atomic_write(path, lambda f: f.write(blob))
    except Exception as exc:  # noqa: BLE001 - the writer thread's boundary
        on_error(exc)


_WRITES = _WriteBehind()


def flush_writes():
    """Block until every write-behind save of this process is durable,
    and end the writer thread (the next save starts a new one)."""
    _WRITES.flush()


@runtime_checkable
class StoreBackend(Protocol):
    """What a session-pluggable result store must implement.

    ``load_result`` returns ``None`` on a miss; ``save_result`` is
    best-effort (a failing backend must degrade to no-persistence, never
    fail the simulation that produced the result).
    """

    def load_result(self, digest): ...

    def save_result(self, digest, result): ...

    def clear(self): ...

    def stats(self): ...


class LocalDirBackend:
    """Content-addressed persistence in a local directory tree.

    Layout (under ``root``)::

        results/<aa>/<digest>.pkl   # pickled {"result": ...}

    ``<aa>`` is the first two hex digits of the digest (fan-out so a
    large cache does not put tens of thousands of files in one
    directory).  Writes go through a temp file + ``os.replace`` so
    concurrent writers (two processes sharing one store) can never
    expose a torn file; both writers produce identical bytes-for-key
    content, so the race is benign.

    Results are pickled, not JSON-encoded: the acceptance bar for the
    cache is *bit-for-bit* identity with a fresh computation, and pickle
    round-trips floats and dataclasses losslessly.  Keys embed a
    source-code salt (see :mod:`repro.engine.fingerprint`), so
    unpickling never crosses a code version.  Corrupt or unreadable
    entries are treated as misses.

    Writes are best-effort: the store is an optimization, so an
    unwritable cache directory degrades to no-persistence (with one
    warning on stderr) instead of failing the simulation that produced
    the result.  They are also write-behind (see the module docstring):
    a save returns once its bytes are pickled, and every read in the
    process waits for the writes it depends on.
    """

    #: Roots that already warned about failed writes (class-level so the
    #: warning fires once per location, not once per store instance).
    _warned_roots = set()

    def __init__(self, root, touch_on_load=True):
        self.root = Path(root)
        #: Whether cache hits refresh the artifact's mtime (LRU recency
        #: for ``gc``).  Disabled for stores mounted read-only — e.g. the
        #: shared tier of a :class:`TieredBackend`, whose eviction order
        #: belongs to the owning host, not its readers.
        self.touch_on_load = touch_on_load

    def _write_failed(self, exc):
        root = str(self.root)
        if root not in LocalDirBackend._warned_roots:
            LocalDirBackend._warned_roots.add(root)
            print(
                f"warning: engine cache at {root} is not writable ({exc}); "
                "results will not persist",
                file=sys.stderr,
            )

    # -- paths ---------------------------------------------------------------

    def _result_path(self, digest):
        return self.root / "results" / digest[:2] / f"{digest}.pkl"

    @staticmethod
    def _atomic_write(path, writer):
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as f:
                writer(f)
                # Durability, not just atomicity: sync the bytes before
                # publishing the name.  Without this, a power loss after
                # the rename can leave a *published* torn file — which
                # the corrupt-entry handling then masks as a permanent
                # silent miss.
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
            _fsync_directory(path.parent)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- results -------------------------------------------------------------

    @staticmethod
    def _touch(path):
        """Best-effort mtime bump on a cache hit.

        ``gc`` evicts oldest-mtime-first, so refreshing the mtime on every
        load turns the mtime order into a true least-recently-*used* order
        rather than least-recently-written.
        """
        try:
            os.utime(path, None)
        except OSError:
            pass

    def load_result(self, digest):
        """Return the stored object for ``digest`` or ``None`` on a miss."""
        path = self._result_path(digest)
        _WRITES.wait(path)
        try:
            with open(path, "rb") as f:
                result = pickle.load(f)["result"]
        except Exception:
            # A truncated or corrupted pickle stream can raise nearly
            # anything (UnpicklingError, EOFError, ValueError, ImportError,
            # MemoryError...); every decode failure is a miss — the entry
            # is recomputed and rewritten, never fatal.
            return None
        if self.touch_on_load:
            self._touch(path)
        return result

    def save_result(self, digest, result):
        """Persist ``result`` under ``digest`` (atomic, best-effort).

        The result is pickled here, so later changes to it are not
        stored; the writer thread makes the bytes durable."""
        blob = pickle.dumps({"result": result}, protocol=pickle.HIGHEST_PROTOCOL)
        _WRITES.submit(self._result_path(digest), blob, self._write_failed)

    # -- maintenance ---------------------------------------------------------

    def clear(self):
        """Delete every cached result."""
        flush_writes()
        # ``traces/`` is swept too: a store written while traces were still
        # persisted holds a trace tree that nothing reads any more, and
        # ``repro cache clear`` must still empty it.
        for sub in ("results", "traces"):
            shutil.rmtree(self.root / sub, ignore_errors=True)

    #: Temp files younger than this are presumed to belong to a live
    #: writer; older ones are orphans from a killed process and become
    #: ordinary eviction candidates so gc can reclaim their bytes.
    _TMP_GRACE_SECONDS = 3600.0

    def _files(self):
        """Every file under ``results/`` (empty when it does not exist)."""
        base = self.root / "results"
        return [p for p in base.rglob("*") if p.is_file()] if base.is_dir() else []

    def _artifacts(self):
        """All (mtime, size, path) triples under results/."""
        entries = []
        now = time.time()
        for path in self._files():
            try:
                st = path.stat()
            except OSError:
                continue  # racing writer/evictor; skip
            if (
                path.name.startswith(".tmp-")
                and now - st.st_mtime < self._TMP_GRACE_SECONDS
            ):
                # In-progress _atomic_write temp file: deleting it
                # would yank it out from under a live writer.
                continue
            entries.append((st.st_mtime, st.st_size, path))
        return entries

    def gc(self, max_bytes):
        """Size-bounded eviction: keep the store at or below ``max_bytes``.

        Results are evicted least-recently-used first (mtime order —
        loads refresh mtimes, so this is true LRU for anything read
        through the store).  Returns a summary dict for the CLI:
        removed/kept counts and byte totals.
        Deletions are best-effort; a file that vanishes or resists
        unlinking is skipped, never fatal.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        flush_writes()
        entries = self._artifacts()
        total = sum(size for _, size, _ in entries)
        removed = 0
        freed = 0
        if total > max_bytes:
            entries.sort(key=lambda e: (e[0], str(e[2])))  # oldest first
            for _mtime, size, path in entries:
                if total - freed <= max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                freed += size
                removed += 1
                # Empty <aa>/ shard directories are left in place: there
                # are at most 256, and removing one can race a
                # concurrent writer between its mkdir and mkstemp.
        return {
            "removed": removed,
            "freed_bytes": freed,
            "kept": len(entries) - removed,
            "remaining_bytes": total - freed,
        }

    def stats(self):
        """Entry count and total bytes, for ``repro cache`` / tests.

        An in-progress ``.tmp-`` file counts in ``bytes`` only; a file
        that vanishes mid-walk (another process renamed or evicted it) is
        skipped, as ``gc`` skips it."""
        flush_writes()
        results = size = 0
        for path in self._files():
            try:
                size += path.stat().st_size
            except OSError:
                continue
            results += not path.name.startswith(".tmp-")
        return {"results": results, "bytes": size}

    @staticmethod
    def _decodable(path):
        """Can this result actually be loaded?  (The scrub's oracle —
        the same decode the hot path performs, so anything verify passes
        the cache will serve.)  ``None`` when the file is gone: another
        process evicted it since the walk listed it."""
        try:
            with open(path, "rb") as f:
                payload = pickle.load(f)
        except FileNotFoundError:
            return None
        except Exception:
            return False
        return isinstance(payload, dict) and "result" in payload

    def verify(self, repair=False):
        """Scrub the store: check every entry decodes and sits under the
        name/shard the layout contract demands.

        The load paths deliberately treat corrupt entries as misses so a
        torn file can never crash a run — but that also makes them
        *silent permanent* misses.  ``verify`` is the loud counterpart:
        it walks ``results/``, re-decodes every entry, and reports
        entries that are corrupt (undecodable) or foreign (name is not a
        ``<digest 64-hex>.pkl`` under its own ``<aa>`` shard).  With
        ``repair=True`` both kinds are moved to ``corrupt/`` under the
        store root — non-destructive quarantine, so the bytes stay
        inspectable while the key becomes an honest recomputable miss.

        Returns a report dict: counts plus ``entries`` — a list of
        ``(reason, path)`` pairs (reason in ``"corrupt"``/``"foreign"``).
        In-progress ``.tmp-`` writer files are skipped, like ``gc``, and
        so is an entry that vanishes mid-walk, like ``stats`` skips it.
        """
        flush_writes()
        report = {
            "checked": 0,
            "ok": 0,
            "corrupt": 0,
            "foreign": 0,
            "quarantined": 0,
            "entries": [],
        }
        base = self.root / "results"
        for path in sorted(self._files()):
            if path.name.startswith(".tmp-"):
                continue
            digest = path.stem
            well_named = (
                _DIGEST_RE.match(digest) is not None
                and path.suffix == ".pkl"
                and path.parent.name == digest[:2]
                and path.parent.parent == base
            )
            decodable = self._decodable(path) if well_named else False
            if decodable is None:
                continue
            report["checked"] += 1
            if decodable:
                report["ok"] += 1
                continue
            reason = "corrupt" if well_named else "foreign"
            report[reason] += 1
            report["entries"].append((reason, str(path)))
            if repair and self._quarantine(path):
                report["quarantined"] += 1
        return report

    def _quarantine(self, path):
        """Move one bad entry to ``corrupt/`` (best-effort); True on success."""
        target_dir = self.root / "corrupt"
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            target = target_dir / path.name
            counter = 0
            while target.exists():
                counter += 1
                target = target_dir / f"{path.name}.{counter}"
            os.replace(path, target)
            return True
        except OSError as exc:
            self._write_failed(exc)
            return False


class InMemoryBackend:
    """Process-local store holding results as ``pickle`` bytes.

    Results are serialized on save and deserialized on load, so a hit
    returns a *distinct* object with a bit-identical payload — the same
    observable behaviour as the disk store, which is what makes this
    backend a faithful stand-in for tests.
    """

    def __init__(self):
        self._results = {}

    def load_result(self, digest):
        blob = self._results.get(digest)
        return None if blob is None else pickle.loads(blob)

    def save_result(self, digest, result):
        self._results[digest] = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)

    def clear(self):
        self._results.clear()

    def stats(self):
        return {
            "results": len(self._results),
            "bytes": sum(len(b) for b in self._results.values()),
        }


class TieredBackend:
    """Read-through pair: a writable ``local`` over a ``shared`` tier.

    Loads consult ``local`` first, then ``shared``; a shared hit is
    promoted into ``local`` — exactly once, since the promoted copy
    serves every later load — so subsequent loads (and gc recency) are
    local.  Saves, ``clear`` and ``gc`` touch **only** the local tier:
    the shared tier is read-only by contract (a network mount, a
    CI-published artifact directory, another host's cache) and is never
    written.
    """

    def __init__(self, local, shared):
        self.local = local
        self.shared = shared

    def load_result(self, digest):
        result = self.local.load_result(digest)
        if result is not None:
            return result
        result = self.shared.load_result(digest)
        if result is not None:
            self.local.save_result(digest, result)
        return result

    def save_result(self, digest, result):
        self.local.save_result(digest, result)

    def clear(self):
        self.local.clear()

    def gc(self, max_bytes):
        return self.local.gc(max_bytes)

    def verify(self, repair=False):
        """Scrub the writable tier (the only one this process owns)."""
        if hasattr(self.local, "verify"):
            return self.local.verify(repair=repair)
        return None

    def stats(self):
        """Local-tier stats plus the shared tier's entry count.

        ``setdefault`` so a nested stack keeps the innermost shared count.
        """
        out = dict(self.local.stats())
        try:
            shared = self.shared.stats()
        except OSError:
            shared = {}
        out.setdefault("shared_results", shared.get("results", 0))
        return out
