"""Quotient-geometry helpers that only the tests use.

The membership check ``check_member`` and its defect measures, the
orthogonal group action (U O1, O1T R O2, V O2), its push-forward on
tangent triples, the vertical lift of a skew pair, a seeded random
horizontal vector, and the tangent projection and gradient in their
weight-solve form, the reference for the library's spectral form.  They check or exercise the geometry the solver
relies on but never calls, so they live here rather than in the package.
"""

import numpy as np

from r3mc import (
    ContractViolationError,
    CounterRng,
    DimensionError,
    FixedRankPoint,
    HorizontalVector,
    SingularMatrixError,
    TangentTriple,
    norm,
    project_to_horizontal,
    project_to_tangent,
)
from r3mc.problem import residual_products
from r3mc.smallmat import RANK_TOL, skew, solve_lyapunov_spd, sym

CHECK_TOL = 1e-10


def tangency_defect(x, triple):
    """Size of the symmetric parts of UT dU and VT dV (zero on the tangent space)."""
    du, _, dv = triple
    return max(
        np.linalg.norm(sym(x.U.T @ du)),
        np.linalg.norm(sym(x.V.T @ dv)),
    )


def _horizontality(u, r, v, du, dr, dv):
    c1 = skew(u.T @ du @ (r @ r.T) + r @ dr.T)
    c2 = skew(v.T @ dv @ (r.T @ r) + r.T @ dr)
    return max(np.linalg.norm(c1), np.linalg.norm(c2))


def horizontality_defect(x, triple):
    """Residual of the horizontality conditions

        Skew(UT dU R RT + R dRT) = 0 and Skew(VT dV RT R + RT dR) = 0.
    """
    return _horizontality(x.U, x.R, x.V, *triple)


def _size(block):
    """Frobenius norm of ``block``, formed on the block over its largest
    entry so that no square overflows."""
    top = np.max(np.abs(block))
    return top * np.linalg.norm(block / top) if top > 0.0 else 0.0


def check_member(obj):
    """Raise unless ``obj`` is a member of its class.

    A ``FixedRankPoint`` needs orthonormal U and V (to ``CHECK_TOL``) and
    an R whose singular value ratio exceeds ``RANK_TOL``.  A tangent
    triple needs UT dU and VT dV skew, and a ``HorizontalVector`` also
    the horizontality conditions.  The projections divide by R RT, so
    their attainable accuracy degrades with cond(R)^2, and so do the
    allowances.

    Both conditions are homogeneous: (dU, a dR, dV) is horizontal at
    (U, a R, V) when (dU, dR, dV) is at (U, R, V), and so is any multiple
    of it.  So the defects are formed on R / a, with a = |R|_2, and on
    the triple (dU, dR / a, dV) over c, the largest of its block norms
    and 1.  The allowance is CHECK_TOL cond(R)^2 times the size of those
    blocks plus 1 / c (and times 1 + |R / a|_F^2 for horizontality).  So
    the verdict does not depend on the scale of R, nor on that of a
    triple larger than the point, and no product overflows on finite
    input.  The 1 / c, a floor at the size of the point's own factors,
    accepts the rounding left when two nearly equal triples are
    subtracted.  A non-finite triple passes: the solver ends its solve as
    ``non_finite``.
    """
    if isinstance(obj, FixedRankPoint):
        for name, f in (("U", obj.U), ("V", obj.V)):
            defect = np.linalg.norm(f.T @ f - np.eye(obj.r))
            if defect > CHECK_TOL:
                raise ContractViolationError(
                    "%s is not orthonormal, defect %.3e" % (name, defect)
                )
        sig = np.linalg.svd(obj.R, compute_uv=False)
        if not sig[-1] > RANK_TOL * sig[0]:
            raise SingularMatrixError("R is numerically singular")
        return
    if not all(np.all(np.isfinite(block)) for block in obj):
        return
    x = obj.point
    sig = np.linalg.svd(x.R, compute_uv=False)
    a = sig[0]
    c = max(1.0, _size(obj.dU), _size(obj.dR) / a, _size(obj.dV))
    du, dr, dv = obj.dU / c, obj.dR / (a * c), obj.dV / c
    allowance = CHECK_TOL * (sig[0] / sig[-1]) ** 2
    defect = tangency_defect(x, (du, dr, dv))
    scale = 1.0 / c + np.linalg.norm(du) + np.linalg.norm(dv)
    if defect > allowance * scale:
        raise ContractViolationError("not a tangent triple, defect %.3e" % defect)
    if isinstance(obj, HorizontalVector):
        r = x.R / a
        defect = _horizontality(x.U, r, x.V, du, dr, dv)
        scale = 1.0 / c + np.linalg.norm(du) + np.linalg.norm(dr) + np.linalg.norm(dv)
        scale *= 1.0 + np.linalg.norm(r) ** 2
        if defect > allowance * scale:
            raise ContractViolationError("not horizontal, defect %.3e" % defect)


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


def reference_project_to_tangent(x, ambient):
    """The blocks (dU, dR, dV) of ``project_to_tangent`` through solves with
    the weights W1 = R RT and W2 = RT R: the U block subtracts U B W1^{-1}
    with B solving W1 B + B W1 = W1 (UT zU + zUT U) W1, the V block
    likewise with W2, and zR passes through."""
    zu, zr, zv = ambient
    w1, w2 = x.R @ x.R.T, x.R.T @ x.R
    bu = solve_lyapunov_spd(w1, w1 @ (x.U.T @ zu + zu.T @ x.U) @ w1)
    bv = solve_lyapunov_spd(w2, w2 @ (x.V.T @ zv + zv.T @ x.V) @ w2)
    return zu - x.U @ np.linalg.solve(w1, bu).T, zr, zv - x.V @ np.linalg.solve(w2, bv).T


def reference_riemannian_gradient(problem, ev):
    """The blocks (dU, dR, dV) of ``riemannian_gradient`` through solves with
    the weights: for the scaled residual S,

        grad_U = (S V RT - U B_U) W1^{-1}
        grad_R = UT S V
        grad_V = (ST U R - V B_V) W2^{-1}

    with B_U solving W1 B + B W1 = 2 Sym(W1 UT S V RT) and B_V solving
    W2 B + B W2 = 2 Sym(W2 VT ST U R)."""
    x = ev.point
    sv, stu = residual_products(problem, ev)
    w1, w2 = x.R @ x.R.T, x.R.T @ x.R
    dr = x.U.T @ sv
    bu = solve_lyapunov_spd(w1, 2.0 * sym(w1 @ dr @ x.R.T))
    bv = solve_lyapunov_spd(w2, 2.0 * sym(w2 @ x.V.T @ stu @ x.R))
    du = np.linalg.solve(w1, (sv @ x.R.T - x.U @ bu).T).T
    dv = np.linalg.solve(w2, (stu @ x.R - x.V @ bv).T).T
    return du, dr, dv
