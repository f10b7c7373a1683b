"""Pluggable store backends for simulation artifacts.

A backend persists two artifact kinds under content-addressed digests
(see :mod:`repro.engine.fingerprint`): pickled *results* (``RunResult`` /
``MultiProgramResult``) and ``.npz``-encoded *traces*.  The
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
"""

import os
import pickle
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.cpu.trace import Trace

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


@runtime_checkable
class StoreBackend(Protocol):
    """What a session-pluggable artifact store must implement.

    ``load_*`` return ``None`` on a miss; ``save_*`` are best-effort
    (a failing backend must degrade to no-persistence, never fail the
    simulation that produced the artifact).
    """

    #: Whether writes made in one process are visible from another (true
    #: for filesystem-backed stores).  Sessions use this to decide how to
    #: involve the backend in process-pool execution.
    shared_across_processes: bool

    def load_result(self, digest): ...

    def save_result(self, digest, result, meta=None): ...

    def load_trace(self, digest): ...

    def save_trace(self, digest, trace): ...

    def clear(self): ...

    def stats(self): ...


class LocalDirBackend:
    """Content-addressed persistence in a local directory tree.

    Layout (under ``root``)::

        results/<aa>/<digest>.pkl   # pickled {"meta": ..., "result": ...}
        traces/<aa>/<digest>.npz    # Trace round-trip (Trace.save/load)

    ``<aa>`` is the first two hex digits of the digest (fan-out so a
    large cache does not put tens of thousands of files in one
    directory).  Writes go through a temp file + ``os.replace`` so
    concurrent writers (the process-pool workers) can never expose a
    torn file; both writers produce identical bytes-for-key content, so
    the race is benign.

    Results are pickled, not JSON-encoded: the acceptance bar for the
    cache is *bit-for-bit* identity with a fresh computation, and pickle
    round-trips floats and dataclasses losslessly.  Keys embed a
    source-code salt (see :mod:`repro.engine.fingerprint`), so
    unpickling never crosses a code version.  Corrupt or unreadable
    entries are treated as misses.

    Writes are best-effort: the store is an optimization, so an
    unwritable cache directory degrades to no-persistence (with one
    warning on stderr) instead of failing the simulation that produced
    the result.
    """

    #: Roots that already warned about failed writes (class-level so the
    #: warning fires once per location, not once per store instance).
    _warned_roots = set()

    shared_across_processes = True

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

    def _trace_path(self, digest):
        return self.root / "traces" / digest[:2] / f"{digest}.npz"

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

    def save_result(self, digest, result, meta=None):
        """Persist ``result`` under ``digest`` (atomic, best-effort)."""
        payload = {"meta": meta or {}, "result": result}
        try:
            self._atomic_write(
                self._result_path(digest),
                lambda f: pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL),
            )
        except OSError as exc:
            self._write_failed(exc)

    # -- traces --------------------------------------------------------------

    def load_trace(self, digest):
        """Return the stored :class:`Trace` for ``digest`` or ``None``."""
        path = self._trace_path(digest)
        try:
            trace = Trace.load(path)
        except Exception:
            # A truncated .npz raises zipfile.BadZipFile (not an OSError),
            # corrupt arrays raise ValueError/KeyError; all of it is a miss.
            return None
        if self.touch_on_load:
            self._touch(path)
        return trace

    def save_trace(self, digest, trace):
        """Persist ``trace`` under ``digest`` (atomic, best-effort)."""
        path = self._trace_path(digest)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".npz")
        except OSError as exc:
            self._write_failed(exc)
            return
        os.close(fd)
        try:
            trace.save(tmp)
            # Same durability contract as _atomic_write: the .npz was
            # written (and closed) by numpy, so reopen to sync its bytes
            # before the rename publishes the name.
            sync_fd = os.open(tmp, os.O_RDONLY)
            try:
                os.fsync(sync_fd)
            finally:
                os.close(sync_fd)
            os.replace(tmp, path)
            _fsync_directory(path.parent)
        except OSError as exc:
            self._write_failed(exc)
            try:
                os.unlink(tmp)
            except OSError:
                pass
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- maintenance ---------------------------------------------------------

    def clear(self):
        """Delete every cached artifact (results and traces)."""
        for sub in ("results", "traces"):
            shutil.rmtree(self.root / sub, ignore_errors=True)

    #: Temp files younger than this are presumed to belong to a live
    #: writer; older ones are orphans from a killed process and become
    #: ordinary eviction candidates so gc can reclaim their bytes.
    _TMP_GRACE_SECONDS = 3600.0

    def _artifacts(self):
        """All (mtime, size, path) triples under results/ and traces/."""
        entries = []
        now = time.time()
        for sub in ("results", "traces"):
            base = self.root / sub
            if not base.is_dir():
                continue
            for path in base.rglob("*"):
                if not path.is_file():
                    continue
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

        Artifacts are evicted least-recently-used first (mtime order —
        loads refresh mtimes, so this is true LRU for anything read
        through the store), across results and traces together.  Returns
        a summary dict for the CLI: removed/kept counts and byte totals.
        Deletions are best-effort; a file that vanishes or resists
        unlinking is skipped, never fatal.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
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
                # are at most 256 per kind, and removing one can race a
                # concurrent writer between its mkdir and mkstemp.
        return {
            "removed": removed,
            "freed_bytes": freed,
            "kept": len(entries) - removed,
            "remaining_bytes": total - freed,
        }

    def stats(self):
        """Entry counts and total bytes, for ``repro cache`` / tests."""
        out = {}
        total_bytes = 0
        for sub in ("results", "traces"):
            base = self.root / sub
            files = [p for p in base.rglob("*") if p.is_file()] if base.is_dir() else []
            out[sub] = len(files)
            total_bytes += sum(p.stat().st_size for p in files)
        out["bytes"] = total_bytes
        return out

    def _decodable(self, kind, path):
        """Can this artifact actually be loaded?  (The scrub's oracle —
        the same decode the hot path performs, so anything verify passes
        the cache will serve.)"""
        try:
            if kind == "results":
                with open(path, "rb") as f:
                    payload = pickle.load(f)
                return isinstance(payload, dict) and "result" in payload
            Trace.load(path)
            return True
        except Exception:
            return False

    def verify(self, repair=False):
        """Scrub the store: check every entry decodes and sits under the
        name/shard the layout contract demands.

        The load paths deliberately treat corrupt entries as misses so a
        torn file can never crash a run — but that also makes them
        *silent permanent* misses.  ``verify`` is the loud counterpart:
        it walks ``results/`` and ``traces/``, re-decodes every
        artifact, and reports entries that are corrupt (undecodable) or
        foreign (name is not a ``<digest 64-hex><right suffix>`` under
        its own ``<aa>`` shard).  With ``repair=True`` both kinds are
        moved to ``corrupt/`` under the store root — non-destructive
        quarantine, so the bytes stay inspectable while the key becomes
        an honest recomputable miss.

        Returns a report dict: counts plus ``entries`` — a list of
        ``(reason, path)`` pairs (reason in ``"corrupt"``/``"foreign"``).
        In-progress ``.tmp-`` writer files are skipped, like ``gc``.
        """
        report = {
            "checked": 0,
            "ok": 0,
            "corrupt": 0,
            "foreign": 0,
            "quarantined": 0,
            "entries": [],
        }
        suffixes = {"results": ".pkl", "traces": ".npz"}
        for kind in ("results", "traces"):
            base = self.root / kind
            if not base.is_dir():
                continue
            for path in sorted(p for p in base.rglob("*") if p.is_file()):
                if path.name.startswith(".tmp-"):
                    continue
                report["checked"] += 1
                digest = path.stem
                well_named = (
                    _DIGEST_RE.match(digest) is not None
                    and path.suffix == suffixes[kind]
                    and path.parent.name == digest[:2]
                    and path.parent.parent == base
                )
                if not well_named:
                    reason = "foreign"
                elif not self._decodable(kind, path):
                    reason = "corrupt"
                else:
                    report["ok"] += 1
                    continue
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
    """Process-local store holding artifacts as ``pickle`` bytes.

    Artifacts are serialized on save and deserialized on load, so a hit
    returns a *distinct* object with a bit-identical payload — the same
    observable behaviour as the disk store, which is what makes this
    backend a faithful stand-in for tests.  Traces round-trip the same
    way (``Trace`` pickles its arrays losslessly).
    """

    shared_across_processes = False

    def __init__(self):
        self._results = {}
        self._traces = {}

    def load_result(self, digest):
        blob = self._results.get(digest)
        return None if blob is None else pickle.loads(blob)

    def save_result(self, digest, result, meta=None):
        self._results[digest] = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)

    def load_trace(self, digest):
        blob = self._traces.get(digest)
        return None if blob is None else pickle.loads(blob)

    def save_trace(self, digest, trace):
        self._traces[digest] = pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)

    def clear(self):
        self._results.clear()
        self._traces.clear()

    def stats(self):
        return {
            "results": len(self._results),
            "traces": len(self._traces),
            "bytes": sum(len(b) for b in self._results.values())
            + sum(len(b) for b in self._traces.values()),
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

    @property
    def shared_across_processes(self):
        """Cross-process iff both tiers are."""
        return bool(
            getattr(self.local, "shared_across_processes", False)
            and getattr(self.shared, "shared_across_processes", False)
        )

    def load_result(self, digest):
        result = self.local.load_result(digest)
        if result is not None:
            return result
        result = self.shared.load_result(digest)
        if result is not None:
            self.local.save_result(digest, result, meta={"promoted": True})
        return result

    def save_result(self, digest, result, meta=None):
        self.local.save_result(digest, result, meta=meta)

    def load_trace(self, digest):
        trace = self.local.load_trace(digest)
        if trace is not None:
            return trace
        trace = self.shared.load_trace(digest)
        if trace is not None:
            self.local.save_trace(digest, trace)
        return trace

    def save_trace(self, digest, trace):
        self.local.save_trace(digest, trace)

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
        """Local-tier stats plus the shared tier's entry counts.

        ``setdefault`` so a nested stack keeps the innermost shared counts.
        """
        out = dict(self.local.stats())
        try:
            shared = self.shared.stats()
        except OSError:
            shared = {}
        out.setdefault("shared_results", shared.get("results", 0))
        out.setdefault("shared_traces", shared.get("traces", 0))
        return out
