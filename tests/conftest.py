"""Shared test configuration.

Runtime invariant checks are off by default in the library; each test
here turns them on for its own run, so every constructed point and
tangent vector is revalidated, and turns them off again so the flag does
not reach tests collected from outside this directory.  Property tests
run under one ``hypothesis`` profile: derandomized, so every run tries
the same examples, and with no per-example deadline.
"""

import pytest
from hypothesis import settings

from r3mc import enable_invariant_checks

settings.register_profile("r3mc", derandomize=True, deadline=None)
settings.load_profile("r3mc")


@pytest.fixture(autouse=True)
def _invariant_checks():
    enable_invariant_checks(True)
    yield
    enable_invariant_checks(False)
