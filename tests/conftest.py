"""Shared test configuration.

Runtime invariant checks are off by default in the library; each test
here turns them on for its own run, so every constructed point and
tangent vector is revalidated, and turns them off again so the flag does
not reach tests collected from outside this directory.
"""

import pytest

from r3mc import enable_invariant_checks


@pytest.fixture(autouse=True)
def _invariant_checks():
    enable_invariant_checks(True)
    yield
    enable_invariant_checks(False)
