"""Process set-up shared by the benchmark and its set-up probe.

Run as a script, this sets up once, prints ``ready`` and exits: the
benchmark launches it several times and times each launch from process
start to that line as ``setup_s``.  Set-up covers the imports, pinning
the engine configuration, loading the compiled kernel from the already
built cache, and opening a session on a local-disk store.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run leaves behind: the kernel build cache, the per-pass
#: stores and the span dumps.
WORK = ROOT / ".perfbench-work"
#: Engine cache root; only the compiled kernel (``ckernel/``) lives here,
#: built once and reused by every run.  Results go to per-pass stores.
KERNEL_CACHE = WORK / "kernel"


def import_repro():
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    if str(src) in sys.path:
        return
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def ready():
    """Pin the load shape and load the compiled kernel, or exit non-zero.

    One process, ``jobs=1``, no shared/remote/S3 tiers: ``REPRO_*``
    variables of the calling shell are dropped so they cannot change
    what is measured.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # The C compiler's scratch files stay inside the checkout too.
    scratch = WORK / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    import_repro()
    from repro import engine
    from repro.experiments import api  # noqa: F401 - the drivers' import cost
    from repro.kernel.execution import kernel_unavailable_reason

    engine.configure(jobs=1, cache_dir=KERNEL_CACHE, disk_cache=True, kernel="compiled")
    reason = kernel_unavailable_reason()
    if reason is not None:
        kind, detail = reason
        raise SystemExit(
            f"perfbench: compiled kernel unavailable ({kind}): {detail}; "
            "refusing to report numbers"
        )


def open_session(store_dir):
    """A fresh session (empty memos) over a local-disk store."""
    from repro.engine import Session

    session = Session(jobs=1, cache_dir=store_dir)
    return session, session.store


if __name__ == "__main__":
    ready()
    open_session(WORK / f"probe-{os.getpid()}")
    print("ready", flush=True)
