"""Engine configuration: parallelism, cache location, store backend.

Resolution order for every knob:

1. an explicit :func:`configure` call (the CLI flags land here);
2. environment variables (``REPRO_JOBS``, ``REPRO_CACHE_DIR``,
   ``REPRO_NO_CACHE``, ``REPRO_SHARED_CACHE``, ``REPRO_REMOTE_CACHE``,
   ``REPRO_S3_CACHE``, ``REPRO_TLS_CA``; ``REPRO_CACHE_TOKEN`` rides
   along as the remote store's shared secret, and
   ``REPRO_S3_ACCESS_KEY``/``REPRO_S3_SECRET_KEY``/``REPRO_S3_REGION``
   — or their standard ``AWS_*`` equivalents — as the object store's
   credentials);
3. built-in defaults (sequential, ``~/.cache/dspatch-repro``, disk cache
   enabled, no shared tier, no remote store, no object store).

Environment variables are read lazily at each :func:`current_config`
call (not at import), so test fixtures can repoint the cache directory
before any simulation runs.

These process-global knobs back the **default session** (and the
figure drivers).  Explicitly constructed
:class:`repro.engine.session.Session` objects can override any of them
per session — including plugging in a whole
:class:`repro.engine.backends.StoreBackend` — without touching this
module.
"""

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.engine.backends import LocalDirBackend, TieredBackend

#: Explicit overrides set via :func:`configure`; ``None`` = use env/default.
_overrides = {
    "jobs": None,
    "cache_dir": None,
    "disk_cache": None,
    "shared_cache_dir": None,
    "remote_cache_url": None,
    "s3_cache_url": None,
    "tls_ca": None,
    "kernel": None,
}

#: Valid hot-loop kernel selections (``repro run --kernel`` / REPRO_KERNEL).
KERNEL_CHOICES = ("auto", "compiled", "object")


@dataclass(frozen=True)
class EngineConfig:
    """Resolved engine settings."""

    #: Worker processes for independent runs; 1 = in-process sequential.
    jobs: int
    #: Root directory of the on-disk result/trace store.
    cache_dir: Path
    #: Whether the disk layer is consulted/written at all.
    disk_cache: bool
    #: Optional read-only shared store root layered under the local one
    #: (read-through: shared hits are promoted into the local tier).
    shared_cache_dir: Optional[Path] = None
    #: Optional remote cache-server URL (``repro serve``), layered as a
    #: read-through/write-through tier above the local store.
    remote_cache_url: Optional[str] = None
    #: Optional S3-compatible endpoint (``http(s)://host[:port]/bucket
    #: [/prefix]``): the outermost, durable tier — it outlives every
    #: coordinator host, so it sits above even the remote cache server.
    s3_cache_url: Optional[str] = None
    #: Optional CA bundle (PEM path) pinning the TLS certificates of
    #: both the remote cache server and the S3 endpoint — the
    #: self-signed deployment recipe.  ``None`` = system trust store.
    tls_ca: Optional[str] = None
    #: Hot-loop kernel for eligible runs: ``auto`` picks the compiled
    #: kernel when a C toolchain is present and falls back to the object
    #: model otherwise; ``object`` forces the object model.  Deliberately
    #: NOT part of spec fingerprints — both are bit-identical, so results
    #: share cache entries.
    kernel: str = "auto"


def _default_cache_dir():
    return Path(os.environ.get("REPRO_CACHE_DIR") or Path.home() / ".cache" / "dspatch-repro")


def current_config():
    """The active :class:`EngineConfig` (overrides > env > defaults)."""
    jobs = _overrides["jobs"]
    if jobs is None:
        try:
            jobs = int(os.environ.get("REPRO_JOBS", "1"))
        except ValueError:
            jobs = 1
    cache_dir = _overrides["cache_dir"] or _default_cache_dir()
    disk_cache = _overrides["disk_cache"]
    if disk_cache is None:
        disk_cache = os.environ.get("REPRO_NO_CACHE", "") != "1"
    shared = _overrides["shared_cache_dir"]
    if shared is None:
        env_shared = os.environ.get("REPRO_SHARED_CACHE")
        shared = Path(env_shared) if env_shared else None
    remote = _overrides["remote_cache_url"]
    if remote is None:
        remote = os.environ.get("REPRO_REMOTE_CACHE") or None
    s3 = _overrides["s3_cache_url"]
    if s3 is None:
        s3 = os.environ.get("REPRO_S3_CACHE") or None
    tls_ca = _overrides["tls_ca"]
    if tls_ca is None:
        tls_ca = os.environ.get("REPRO_TLS_CA") or None
    kernel = _overrides["kernel"]
    if kernel is None:
        kernel = os.environ.get("REPRO_KERNEL") or "auto"
        if kernel not in KERNEL_CHOICES:
            raise ValueError(
                f"REPRO_KERNEL={kernel!r} is not one of {KERNEL_CHOICES}"
            )
    return EngineConfig(
        jobs=max(1, jobs),
        cache_dir=Path(cache_dir),
        disk_cache=disk_cache,
        shared_cache_dir=shared,
        remote_cache_url=remote,
        s3_cache_url=s3,
        tls_ca=tls_ca,
        kernel=kernel,
    )


def configure(
    jobs=None,
    cache_dir=None,
    disk_cache=None,
    shared_cache_dir=None,
    remote_cache_url=None,
    s3_cache_url=None,
    tls_ca=None,
    kernel=None,
):
    """Set explicit engine overrides; ``None`` leaves a knob untouched."""
    if jobs is not None:
        _overrides["jobs"] = int(jobs)
    if kernel is not None:
        if kernel not in KERNEL_CHOICES:
            raise ValueError(f"kernel must be one of {KERNEL_CHOICES}, got {kernel!r}")
        _overrides["kernel"] = str(kernel)
    if cache_dir is not None:
        _overrides["cache_dir"] = Path(cache_dir)
    if disk_cache is not None:
        _overrides["disk_cache"] = bool(disk_cache)
    if shared_cache_dir is not None:
        _overrides["shared_cache_dir"] = Path(shared_cache_dir)
    if remote_cache_url is not None:
        _overrides["remote_cache_url"] = str(remote_cache_url)
    if s3_cache_url is not None:
        _overrides["s3_cache_url"] = str(s3_cache_url)
    if tls_ca is not None:
        _overrides["tls_ca"] = str(tls_ca)


def reset_config():
    """Drop all explicit overrides (tests)."""
    for key in _overrides:
        _overrides[key] = None


#: One client (and connection pool) per URL per process: a fresh backend
#: per ``Session.store`` access would open a new connection for every
#: artifact.  A client built with a different CA pin is rebuilt (the
#: pin is effectively process-global, so this only happens when tests
#: repoint it).
_REMOTE_CLIENTS = {}
_S3_CLIENTS = {}


def _remote_client(url, ca_file=None):
    ca_file = str(ca_file) if ca_file else None
    client = _REMOTE_CLIENTS.get(url)
    if client is None or getattr(client, "ca_file", None) != ca_file:
        from repro.engine.remote import RemoteBackend

        # REPRO_CACHE_TOKEN is the client half of `repro serve
        # --auth-token`; absent, the header is simply not sent.
        client = _REMOTE_CLIENTS[url] = RemoteBackend(
            url,
            token=os.environ.get("REPRO_CACHE_TOKEN") or None,
            ca_file=ca_file,
        )
    return client


def _s3_client(url, ca_file=None):
    ca_file = str(ca_file) if ca_file else None
    client = _S3_CLIENTS.get(url)
    if client is None or getattr(client, "ca_file", None) != ca_file:
        from repro.engine.s3 import S3Backend

        # Credentials resolve from the environment inside S3Backend;
        # missing credentials raise there (a configuration error the
        # operator must see, not a silent all-miss tier).
        client = _S3_CLIENTS[url] = S3Backend(url, ca_file=ca_file)
    return client


def backend_for(config):
    """Build the :class:`StoreBackend` a resolved config describes.

    ``None`` when the disk layer is disabled; a plain
    :class:`LocalDirBackend` normally; a read-through
    :class:`TieredBackend` (local over shared) when a shared tier is
    configured.  The remote cache server and the S3 object store, when
    configured, stack above that — each read-through with local
    promotion and **write-through** so every fresh result publishes
    outward.  S3 is the *outermost* tier: it is the durable one, so it
    must see every artifact even when the faster middle tiers are
    down (composition: ``((local over shared-dir) over remote) over
    s3``).  ``disk_cache=False`` wins over everything — it disables the
    *whole* persistent layer, shared/remote/S3 tiers included (there is
    no local tier to promote into, and the contract of ``--no-cache`` is
    "this invocation touches no store at all").
    """
    if not config.disk_cache:
        return None
    store = LocalDirBackend(config.cache_dir)
    if config.shared_cache_dir is not None:
        # touch_on_load=False: readers must not rewrite mtimes on the
        # shared mount (its owner's LRU eviction order is not ours).
        shared = LocalDirBackend(config.shared_cache_dir, touch_on_load=False)
        store = TieredBackend(store, shared)
    if config.remote_cache_url is not None:
        store = TieredBackend(
            store,
            _remote_client(config.remote_cache_url, ca_file=config.tls_ca),
            write_through=True,
        )
    if config.s3_cache_url is not None:
        store = TieredBackend(
            store,
            _s3_client(config.s3_cache_url, ca_file=config.tls_ca),
            write_through=True,
        )
    return store


def active_store():
    """The store backend for the current global config, or ``None`` if
    the disk layer is disabled."""
    return backend_for(current_config())
