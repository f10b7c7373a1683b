"""Content-addressed cache keys for simulation results.

Every persistent result (a single-core run, a multi-programmed run) is
stored under a fingerprint: the SHA-256 of a canonical JSON description
of *everything that determines the result* — the workload, scheme, trace
length, DRAM/LLC/core configuration — plus a **code-version salt**
derived from the simulator sources themselves.  Traces have no key:
they are memoized in the process and rebuilt, never stored.

The salt makes invalidation automatic: any edit to a module that can
change simulation results (cpu/, memory/, core/, kernel/ and its C in
kernel/c/, prefetchers/, workloads/, constants.py, or the engine itself)
produces a new salt, so stale results are unreachable rather than merely
unlikely.  There is no manual version number to forget to bump.
"""

import hashlib
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path

#: Sub-trees of ``src/repro`` whose source participates in the salt.
#: Anything that can change a simulation result (or the on-disk encoding
#: of one) must be listed here.
_SALTED_SOURCES = (
    "constants.py",
    "cpu",
    "memory",
    "core",
    "kernel",
    "prefetchers",
    "workloads",
    "engine",
)

#: The source files of a salted sub-tree: its Python, and the compiled
#: kernel's C (``kernel/c/*.c``), which results depend on as much.
_SALTED_PATTERNS = ("*.py", "*.c")

_code_salt = None


def code_salt():
    """Hex digest covering the simulator's source code (memoized)."""
    global _code_salt
    if _code_salt is None:
        _code_salt = _salt_of(Path(__file__).resolve().parent.parent)
    return _code_salt


def _salt_of(root):
    """The salt of the package tree at ``root``."""
    h = hashlib.sha256()
    for name in _SALTED_SOURCES:
        path = root / name
        if path.is_file():
            files = [path]
        else:
            files = sorted(f for pattern in _SALTED_PATTERNS for f in path.rglob(pattern))
        for f in files:
            h.update(str(f.relative_to(root)).encode())
            h.update(b"\0")
            h.update(f.read_bytes())
            h.update(b"\0")
    return h.hexdigest()[:16]


def _canonical(value):
    """Reduce config objects to JSON-serializable canonical form."""
    if is_dataclass(value) and not isinstance(value, type):
        return {"__dataclass__": type(value).__name__, **_canonical(asdict(value))}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot fingerprint value of type {type(value).__name__}")


def fingerprint(kind, **fields):
    """Content digest for one artifact: ``kind`` + canonical fields + salt."""
    payload = json.dumps(
        {"kind": kind, "salt": code_salt(), "fields": _canonical(fields)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def run_fingerprint(workload, scheme, length, dram, llc_bytes, record_pollution):
    """Key for a memoized single-core run (``Session.run(RunSpec(...))``)."""
    return fingerprint(
        "run",
        workload=workload,
        scheme=scheme,
        length=length,
        dram=dram,
        llc_bytes=llc_bytes,
        record_pollution=record_pollution,
    )


def mix_fingerprint(mix_name, workload_names, scheme, length_per_core, dram, llc_bytes=None):
    """Key for a memoized multi-programmed run.

    ``llc_bytes`` defaults to the MP machine's shared-LLC capacity (what
    every pre-spec caller implicitly simulated).
    """
    from repro.constants import MP_LLC_BYTES

    return fingerprint(
        "mix",
        mix_name=mix_name,
        workloads=list(workload_names),
        scheme=scheme,
        length_per_core=length_per_core,
        dram=dram,
        llc_bytes=MP_LLC_BYTES if llc_bytes is None else llc_bytes,
    )
