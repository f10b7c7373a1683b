"""Shared test fixtures and Hypothesis profiles.

The engine's disk cache is repointed at a per-session temporary
directory so test runs are hermetic: they exercise the persistent layer
(results really do round-trip through disk) without reading or writing
the developer's real cache under ``~/.cache``.
"""

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
