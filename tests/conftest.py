"""Shared test fixtures and Hypothesis profiles.

The engine's disk cache is repointed at a per-session temporary
directory so test runs are hermetic: they exercise the persistent layer
(results really do round-trip through disk) without reading or writing
the developer's real cache under ``~/.cache``.

Every result a test computes in this process, on either kernel, is
checked against the result invariants (:func:`_check_result`).
"""

import math
import os

import pytest
from hypothesis import settings

# The differential twin fuzzer's larger budget (tests/test_twin_fuzz.py
# reads the profile's name), chosen with Hypothesis's own
# --hypothesis-profile=twin-fuzz.  Every other run, under Hypothesis's
# "default" or "ci" profile, keeps each test's own budget: 30
# derandomized examples for the fuzzer.
settings.register_profile("twin-fuzz", max_examples=300)


@pytest.fixture(scope="session", autouse=True)
def _isolated_engine_cache(tmp_path_factory):
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("engine-cache"))
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


def _check_result(cfg, trace, result):
    """The invariants every per-core ``RunResult`` holds: its level hits
    sum to the measured ops (those after the warmup), no more prefetches
    are late than useful, coverage is a rate, and the bandwidth-bucket
    residency is a distribution.  (``pf_useful <= pf_issued`` is not one
    yet: a prefetch issued in warmup can turn useful after the reset.)"""
    label = f"{cfg.l2_prefetcher} on a {len(trace)}-op trace, warmup {cfg.warmup_frac}"
    measured = len(trace) - int(len(trace) * cfg.warmup_frac)
    assert sum(result.level_hits.values()) == measured, f"{label}: hits {result.level_hits}"
    assert result.pf_late <= result.pf_useful, f"{label}: late {result.pf_late} > useful"
    assert 0.0 <= result.coverage <= 1.0, f"{label}: coverage {result.coverage}"
    shares = result.bw_utilization_residency
    assert all(0.0 <= share <= 1.0 for share in shares), f"{label}: residency {shares}"
    assert math.isclose(sum(shares), 1.0), f"{label}: residency {shares}"


@pytest.fixture(autouse=True)
def _no_pending_writes():
    """No write-behind save, and no writer thread, outlives its test."""
    from repro.engine.backends import flush_writes

    yield
    flush_writes()


@pytest.fixture(autouse=True)
def _result_invariants(monkeypatch):
    """Check every core's result of every run against
    :func:`_check_result`: every run goes through ``_simulate``."""
    from repro.cpu import system

    simulate = system._simulate

    def checked(cfg, traces, sinks):
        per_core, global_cycles = simulate(cfg, traces, sinks)
        for trace, result in zip(traces, per_core):
            _check_result(cfg, trace, result)
        return per_core, global_cycles

    monkeypatch.setattr(system, "_simulate", checked)
