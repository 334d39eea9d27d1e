"""Quotient-geometry helpers that only the tests use.

The orthogonal group action (U O1, O1T R O2, V O2), its push-forward on
tangent triples, the vertical lift of a skew pair, and a seeded random
horizontal vector.  They exercise the symmetry the solver relies on but
never call, so they live here rather than in the package.
"""

import numpy as np

from r3mc import (
    ContractViolationError,
    CounterRng,
    DimensionError,
    FixedRankPoint,
    TangentTriple,
    norm,
    project_to_horizontal,
    project_to_tangent,
)
from r3mc.manifold import CHECK_TOL


def _generator(x, name, o):
    """``o`` as a finite r x r float64 array."""
    o = np.ascontiguousarray(np.asarray(o, dtype=np.float64))
    if o.shape != (x.r, x.r):
        raise DimensionError("%s must be %d x %d" % (name, x.r, x.r))
    if not np.all(np.isfinite(o)):
        raise ContractViolationError("%s contains non-finite values" % name)
    return o


def vertical_lift(x, o1, o2):
    """Tangent triple generated by the orthogonal group pair (O1, O2):

        (U O1, R O2 - O1 R, V O2) for skew O1, O2.
    """
    o1, o2 = _generator(x, "O1", o1), _generator(x, "O2", o2)
    for name, o in (("O1", o1), ("O2", o2)):
        defect = np.linalg.norm(o + o.T)
        if defect > CHECK_TOL * (1.0 + np.linalg.norm(o)):
            raise ContractViolationError(
                "%s must be skew-symmetric, defect %.3e" % (name, defect)
            )
    return TangentTriple(x, x.U @ o1, x.R @ o2 - o1 @ x.R, x.V @ o2)


def group_action(x, o1, o2):
    """Re-factor x as (U O1, O1T R O2, V O2); the represented matrix is unchanged."""
    o1, o2 = _generator(x, "O1", o1), _generator(x, "O2", o2)
    for name, o in (("O1", o1), ("O2", o2)):
        defect = np.linalg.norm(o.T @ o - np.eye(x.r))
        if defect > CHECK_TOL:
            raise ContractViolationError(
                "%s must be orthogonal, defect %.3e" % (name, defect)
            )
    return FixedRankPoint(x.U @ o1, o1.T @ x.R @ o2, x.V @ o2)


def rotate_vector(x, xi, o1, o2):
    """Push a tangent triple through the group action used by group_action."""
    y = group_action(x, o1, o2)
    du = xi.dU @ o1
    dr = o1.T @ xi.dR @ o2
    dv = xi.dV @ o2
    cls = type(xi) if isinstance(xi, TangentTriple) else TangentTriple
    return cls(y, du, dr, dv)


def random_horizontal(x, seed):
    """Unit-norm horizontal vector from a projected gaussian ambient triple."""
    rng = CounterRng(seed)
    ambient = (
        rng.standard_normal((x.n, x.r)),
        rng.standard_normal((x.r, x.r)),
        rng.standard_normal((x.m, x.r)),
    )
    eta = project_to_horizontal(x, project_to_tangent(x, ambient))
    scale = norm(x, eta)
    if scale == 0.0:
        raise ContractViolationError("projected gaussian triple vanished")
    return (1.0 / scale) * eta
