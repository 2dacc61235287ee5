"""Shared fixtures: one on-disk cache per test session.

Catalog enumeration is the expensive part of the suite, so every test
that needs games goes through the same cache directory; the first user
pays for a build, everyone after reads it back.  VOTEKIT_CACHE is forced
to that directory so CLI tests cannot touch (or be helped by) a real
user cache.
"""

import os

import pytest

from votekit.pipeline import ensure_tier, load_certificates, load_games, weighted_store

from oracles import vectors_by_kernels

def pytest_configure(config):
    config.acceptance_lines = []


def pytest_collection_modifyitems(config, items):
    if os.environ.get("VOTEKIT_LONG_RUNNING") == "1":
        return
    skip = pytest.mark.skip(reason="set VOTEKIT_LONG_RUNNING=1 to enable the n=8 tier (minutes, about 3.2 GB)")
    for item in items:
        if "long_running" in item.keywords:
            item.add_marker(skip)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = list(getattr(config, "acceptance_lines", []))
    for rep in terminalreporter.stats.get("skipped", []):
        name = getattr(rep, "nodeid", "")
        if "test_acceptance.py::test_criterion_" in name:
            which = name.split("test_criterion_", 1)[1].split("_", 1)[0]
            lines.append(f"criterion {which}: SKIPPED (long-running tier is off)")
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("vkcache")


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_env(cache_dir):
    mp = pytest.MonkeyPatch()
    # The long-running n=8 tier may reuse a prebuilt cache from the
    # pre-isolation environment; everything else stays hermetic.
    outside = os.environ.get("VOTEKIT_CACHE")
    if outside:
        mp.setenv("VOTEKIT_CACHE_PREISOLATION", outside)
    mp.setenv("VOTEKIT_CACHE", str(cache_dir))
    yield
    mp.undo()


def _memoized(load):
    loaded = {}

    def get(*key):
        if key not in loaded:
            loaded[key] = load(*key)
        return loaded[key]

    return get


@pytest.fixture(scope="session")
def catalogs(cache_dir):
    """Factory: (klass, n) -> the catalog's games, memoized for the session."""
    return _memoized(lambda klass, n: load_games(klass, n, cache_dir))


@pytest.fixture(scope="session")
def vectors(certificates):
    """Factory: (klass, n, kind) -> (nums, dens) arrays, one row per game
    in catalog order, recomputed apart from the tier's store files."""
    return _memoized(lambda klass, n, kind: vectors_by_kernels(n, kind, certificates(n) if klass == "wg" else None))


@pytest.fixture(scope="session")
def certificates(cache_dir):
    """Factory: n -> the (quota, weights...) row of every weighted game."""
    return _memoized(lambda n: load_certificates(n, ensure_tier(n, cache_dir)))


@pytest.fixture(scope="session")
def stores(cache_dir):
    """Factory: (n, kind) -> the weighted VectorStore, memoized."""
    return _memoized(lambda n, kind: weighted_store(n, kind, ensure_tier(n, cache_dir)))
