"""Shared test configuration.

Every test runs with the constructors of ``FixedRankPoint`` and
``TangentTriple`` patched to call ``_geometry.check_member`` after their
own checks, and with ``TangentTriple._at``, the constructor the library
uses for the triples it computes from checked values, patched to check
the layout it promises and to call ``check_member``.  So every point,
tangent triple and horizontal vector a test builds, in the test or in
the library, is checked for membership (``HorizontalVector`` inherits
both patched constructors, and ``check_member`` also tests its
horizontality).  The patch is undone after each test, so it does not
reach tests collected from outside this directory.  Property tests run
under one ``hypothesis`` profile: derandomized, so every run tries the
same examples, and with no per-example deadline.  A test that takes
``kernel_path`` runs once on the compiled sparse kernels and once on the
numpy ones.
"""

import functools

import numpy as np
import pytest
from hypothesis import settings

from _geometry import check_member
from r3mc import FixedRankPoint, TangentTriple
from r3mc import problem

settings.register_profile("r3mc", derandomize=True, deadline=None)
settings.load_profile("r3mc")


def _checked(post_init):
    # the unchecked constructor stays reachable as ``__wrapped__``, for a
    # test of what the library itself refuses
    @functools.wraps(post_init)
    def checked_post_init(self):
        post_init(self)
        check_member(self)

    return checked_post_init


def _checked_at(at):
    def checked_at(cls, point, *blocks):
        for block, shape in zip(blocks, ((point.n, point.r), (point.r, point.r),
                                         (point.m, point.r))):
            assert block.shape == shape and block.dtype == np.float64
            assert block.flags.c_contiguous
        xi = at(cls, point, *blocks)
        check_member(xi)
        return xi

    return classmethod(checked_at)


@pytest.fixture(autouse=True)
def _invariant_checks(monkeypatch):
    for cls in (FixedRankPoint, TangentTriple):
        monkeypatch.setattr(cls, "__post_init__", _checked(cls.__post_init__))
    monkeypatch.setattr(TangentTriple, "_at", _checked_at(TangentTriple._at.__func__))


@pytest.fixture(params=["native", "numpy"])
def kernel_path(request, monkeypatch):
    """The compiled kernels, or the numpy ones in their place; the native
    run fails, not skips, when the library did not load."""
    if request.param == "numpy":
        monkeypatch.setattr(problem, "_kernels", None)
    else:
        assert problem._kernels is not None, "the compiled kernels did not load"
    return request.param
