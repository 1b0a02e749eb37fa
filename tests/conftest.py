"""Shared test settings.

Every Hypothesis property test is deterministic: examples come from a fixed
derivation (``derandomize``), nothing is read from or written to an example
database, and slow examples never time out; call sites set only
``max_examples``.  Every test, Hypothesis ones included, fails if it leaves a
sampler's helper thread alive.
"""

import threading

import pytest
from hypothesis import settings

settings.register_profile("deterministic", database=None, derandomize=True, deadline=None)
settings.load_profile("deterministic")


def _helper_threads() -> set:
    return {t for t in threading.enumerate() if t.name.startswith("verblunsky-finish")}


@pytest.fixture(autouse=True)
def _no_helper_thread_left():
    before = _helper_threads()
    yield
    left = sorted(t.name for t in _helper_threads() - before)
    assert not left, f"sampler helper threads left alive: {left}"
