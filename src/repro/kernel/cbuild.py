"""Build and load the compiled kernel twin.

The C source from :mod:`repro.kernel.cgen` (its ``#define`` lines and
the C files under ``kernel/c/``) is compiled once per source digest
into a shared library under ``<cache_dir>/ckernel/`` (atomic
rename, so concurrent workers race benignly) and loaded with ctypes;
:data:`TRAIN_FN`, :data:`NOTE_FN`, :data:`GROW_FN` and :data:`STOP_FN`
are the prototypes of the Python callbacks the C calls.
:mod:`repro.kernel.execution` drives the library.

The build cache under ``<cache_dir>/ckernel/`` is keyed by a digest of
what is built: the emitted C, the compile flags and the compiler —
editing a C file or the layout it is generated from can never load a
stale ``.so``.  Failures past the toolchain probe raise
:class:`KernelBuildError` so callers can tell "no compiler" from "the
kernel is broken".
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

_lib = None

#: The callbacks' C signatures (``kernel/c/machine.c`` and ``run.c``):
#: ``train(cycle, pc, addr, hit)``, ``note(useful, cycle, line)``,
#: ``grow()`` and ``on_stop(core)``.
TRAIN_FN = ctypes.CFUNCTYPE(None, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_bool)
NOTE_FN = ctypes.CFUNCTYPE(None, ctypes.c_bool, ctypes.c_int64, ctypes.c_int64)
GROW_FN = ctypes.CFUNCTYPE(None)
STOP_FN = ctypes.CFUNCTYPE(None, ctypes.c_int64)


class KernelBuildError(RuntimeError):
    """A toolchain exists but generating/compiling/loading the kernel failed.

    Distinct from the plain ``RuntimeError`` raised when no compiler is on
    PATH: a build error means the kernel itself is broken and must never be
    silently degraded to the object path.
    """


def _reset_for_tests():
    """Drop the in-process library memo so the next load re-resolves."""
    global _lib
    _lib = None


def _compiler():
    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    return None


def toolchain_available():
    """True when a C compiler is on PATH (the ``auto`` gate)."""
    return _compiler() is not None


def _build_dir():
    from repro.engine.config import current_config

    # The kernel binary is a build artifact keyed by source digest, not a
    # simulation result, so it lives under the cache root even when the
    # result cache itself is disabled.
    return current_config().cache_dir / "ckernel"


def _build_digest(source, cc):
    """Cache key for the built artifact.

    Covers everything the ``.so`` is built from: the emitted C, the
    compile flags and the compiler path — any change to the C a build
    would compile, a flag change or a compiler switch forces a rebuild
    instead of loading a stale ``.so`` whose bytes happen to sit at the
    old path.
    """
    h = hashlib.sha256()
    h.update(source.encode())
    h.update(repr(_CFLAGS).encode())
    h.update((cc or "").encode())
    return h.hexdigest()[:16]


def artifact_path():
    """Path the current generator output resolves to (test hook)."""
    from repro.kernel import cgen

    source = cgen.generate_source()
    return _build_dir() / f"kernel-{_build_digest(source, _compiler())}.so"


def load_kernel():
    """Compile (if needed) and load the kernel library (memoized)."""
    global _lib
    if _lib is not None:
        return _lib
    from repro.kernel import cgen

    cc = _compiler()
    try:
        source = cgen.generate_source()
    except Exception as exc:
        raise KernelBuildError(f"kernel codegen failed: {exc}") from exc
    digest = _build_digest(source, cc)
    build_dir = _build_dir()
    so_path = build_dir / f"kernel-{digest}.so"
    if not so_path.exists():
        if cc is None:
            raise RuntimeError("no C compiler available to build the kernel")
        build_dir.mkdir(parents=True, exist_ok=True)
        fd, c_path = tempfile.mkstemp(suffix=".c", dir=str(build_dir))
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(source)
            fd2, tmp_so = tempfile.mkstemp(suffix=".so", dir=str(build_dir))
            os.close(fd2)
            try:
                proc = subprocess.run(
                    [cc, *_CFLAGS, "-o", tmp_so, c_path],
                    capture_output=True,
                    text=True,
                )
                if proc.returncode != 0:
                    raise KernelBuildError(
                        f"kernel compilation failed:\n{proc.stderr}"
                    )
                os.replace(tmp_so, so_path)
            except BaseException:
                if os.path.exists(tmp_so):
                    os.unlink(tmp_so)
                raise
        finally:
            if os.path.exists(c_path):
                os.unlink(c_path)
    try:
        lib = ctypes.CDLL(str(so_path))
        lib.ksched.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, STOP_FN]
        lib.ksched.restype = ctypes.c_long
        lib.kbucket.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_longlong]
        lib.kbucket.restype = ctypes.c_long
    except (OSError, AttributeError) as exc:
        raise KernelBuildError(f"kernel library failed to load: {exc}") from exc
    _lib = lib
    return _lib
