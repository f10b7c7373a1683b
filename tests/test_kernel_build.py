"""Compiled-kernel build cache and fallback classification.

Two bug classes are pinned here:

- the build cache must key on what is built (the emitted C, the flags
  and the compiler), so editing the kernel's C or the layout it is
  generated from can never load a stale ``.so`` whose bytes happen to
  still sit at the old path;
- a broken build must be reported as a broken build — never silently
  conflated with "no toolchain".  ``kernel='compiled'`` hard-fails with
  the classified reason; ``auto`` degrades to the object model with a
  warning that names it.

Kernel names outside ``KERNEL_CHOICES`` (including the retired ``py``)
are rejected loudly on every surface.
"""

import pytest

from repro.kernel import cbuild

_HAVE_CC = cbuild.toolchain_available()


# ------------------------------------------------------------- build cache


@pytest.mark.skipif(not _HAVE_CC, reason="no C toolchain")
def test_generator_mutation_triggers_rebuild(tmp_path, monkeypatch):
    from repro.kernel import cgen

    monkeypatch.setattr(cbuild, "_build_dir", lambda: tmp_path)
    saved_lib = cbuild._lib
    try:
        cbuild._reset_for_tests()
        path_a = cbuild.artifact_path()
        assert not path_a.exists()
        cbuild.load_kernel()
        assert path_a.exists()

        # Same generator output -> same artifact (cache hit, no rebuild).
        cbuild._reset_for_tests()
        assert cbuild.artifact_path() == path_a
        mtime_a = path_a.stat().st_mtime_ns
        cbuild.load_kernel()
        assert path_a.stat().st_mtime_ns == mtime_a

        # Mutate the emitted source the way an edit to cgen.py would:
        # the digest must move and a fresh artifact must be built, even
        # though the old .so is still present in the build dir.
        real_generate = cgen.generate_source
        monkeypatch.setattr(
            cgen, "generate_source", lambda: real_generate() + "\n/* mutated */\n"
        )
        cbuild._reset_for_tests()
        path_b = cbuild.artifact_path()
        assert path_b != path_a
        assert not path_b.exists()
        cbuild.load_kernel()
        assert path_b.exists()
        assert path_a.exists()  # old artifact untouched, just not loaded
    finally:
        cbuild._lib = saved_lib


def test_build_digest_covers_generator_and_flags():
    d0 = cbuild._build_digest("int x;", "/usr/bin/cc")
    assert d0 == cbuild._build_digest("int x;", "/usr/bin/cc")
    assert d0 != cbuild._build_digest("int y;", "/usr/bin/cc")
    assert d0 != cbuild._build_digest("int x;", "/usr/bin/clang")
    flags = cbuild._CFLAGS
    try:
        cbuild._CFLAGS = flags + ("-DX",)
        assert d0 != cbuild._build_digest("int x;", "/usr/bin/cc")
    finally:
        cbuild._CFLAGS = flags


# ------------------------------------------- fallback/failure classification


def _probe_reset(monkeypatch):
    import repro.kernel.execution as kex

    monkeypatch.setattr(kex, "_probe", None)
    return kex


@pytest.mark.skipif(not _HAVE_CC, reason="no C toolchain")
def test_probe_classifies_build_failure_as_build(monkeypatch):
    kex = _probe_reset(monkeypatch)

    def broken_load():
        raise cbuild.KernelBuildError("kernel compilation failed: synthetic")

    monkeypatch.setattr(cbuild, "load_kernel", broken_load)
    assert not kex.kernel_available()
    kind, reason = kex.kernel_unavailable_reason()
    assert kind == "build"
    assert "synthetic" in reason


def test_probe_classifies_missing_toolchain(monkeypatch):
    kex = _probe_reset(monkeypatch)
    monkeypatch.setattr(cbuild, "toolchain_available", lambda: False)
    assert not kex.kernel_available()
    kind, reason = kex.kernel_unavailable_reason()
    assert kind == "toolchain"


def test_explicit_compiled_hard_fails_on_broken_build(monkeypatch):
    """--kernel compiled / REPRO_KERNEL=compiled must error with the real
    reason instead of silently degrading when the build is broken."""
    import repro.kernel.execution as kex
    from repro.cpu.system import System, SystemConfig
    from repro.workloads.catalog import build_trace

    monkeypatch.setattr(kex, "_probe", (False, "build", "synthetic codegen bug"))
    trace = build_trace("ispec06.mcf", 300)
    with pytest.raises(RuntimeError, match="failed to build.*synthetic codegen bug"):
        System(SystemConfig.single_thread("spp", kernel="compiled")).run(trace)


def test_explicit_compiled_hard_fails_without_toolchain(monkeypatch):
    import repro.kernel.execution as kex
    from repro.cpu.system import System, SystemConfig
    from repro.workloads.catalog import build_trace

    monkeypatch.setattr(kex, "_probe", (False, "toolchain", "no C compiler on PATH"))
    trace = build_trace("ispec06.mcf", 300)
    with pytest.raises(RuntimeError, match="no C toolchain"):
        System(SystemConfig.single_thread("spp", kernel="compiled")).run(trace)


def _auto_with_probe(monkeypatch, probe):
    """Pin the engine-level choice to auto (whatever REPRO_KERNEL says)
    and the kernel probe to ``probe``; returns the system module."""
    import dataclasses

    import repro.cpu.system as system_mod
    import repro.kernel.execution as kex
    from repro.engine import config as engine_config

    monkeypatch.setattr(kex, "_probe", probe)
    monkeypatch.setattr(system_mod, "_warned_kernel_degraded", False)
    real_config = engine_config.current_config
    monkeypatch.setattr(
        engine_config,
        "current_config",
        lambda: dataclasses.replace(real_config(), kernel="auto"),
    )
    return system_mod


def test_auto_degrades_with_warning_on_build_failure(monkeypatch):
    """auto + broken build -> the object model, with a once-per-process
    warning naming the build failure (a missing toolchain stays quiet)."""
    import warnings

    from repro.cpu.system import System, SystemConfig
    from repro.workloads.catalog import build_trace

    system_mod = _auto_with_probe(monkeypatch, (False, "build", "synthetic codegen bug"))
    cfg = SystemConfig.single_thread("spp", kernel="auto")
    with pytest.warns(RuntimeWarning, match="object model: synthetic codegen bug"):
        assert system_mod._resolve_kernel(cfg) == "object"
    # The run itself completes on the object model, and the warning is
    # not repeated.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = System(cfg).run(build_trace("ispec06.mcf", 300))
    assert result.instructions > 0


def test_auto_degrades_quietly_without_toolchain(monkeypatch):
    import warnings

    from repro.cpu.system import System, SystemConfig
    from repro.workloads.catalog import build_trace

    system_mod = _auto_with_probe(monkeypatch, (False, "toolchain", "no C compiler on PATH"))
    cfg = SystemConfig.single_thread("spp", kernel="auto")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert system_mod._resolve_kernel(cfg) == "object"
        result = System(cfg).run(build_trace("ispec06.mcf", 300))
    assert result.instructions > 0


# ---------------------------------------------------- kernel-name validation


def test_system_rejects_retired_and_unknown_kernel_names():
    from repro.cpu.system import System, SystemConfig
    from repro.workloads.catalog import build_trace

    trace = build_trace("ispec06.mcf", 300)
    for name in ("py", "compield"):
        with pytest.raises(ValueError, match=r"'auto', 'compiled', 'object'"):
            System(SystemConfig.single_thread("spp", kernel=name)).run(trace)


def test_env_rejects_retired_kernel_name(monkeypatch):
    from repro.engine import config as engine_config

    monkeypatch.setitem(engine_config._overrides, "kernel", None)
    monkeypatch.setenv("REPRO_KERNEL", "py")
    with pytest.raises(ValueError, match="REPRO_KERNEL='py'"):
        engine_config.current_config()


def test_cli_rejects_retired_kernel_name(capsys):
    from repro.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["--kernel", "py", "list-workloads"])
    assert "invalid choice: 'py'" in capsys.readouterr().err
