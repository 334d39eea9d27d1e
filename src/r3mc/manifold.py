"""Quotient geometry of rank-r matrices factored as X = U R VT.

Points live on St(r, n) x GL(r) x St(r, m); two factorizations describe
the same matrix exactly when they differ by (U O1, O1T R O2, V O2) with
O1, O2 orthogonal, so optimization happens on the quotient by that group
action.  The metric weights the U and V components by R RT and RT R
respectively,

    g((a, b, c), (d, e, f)) = tr(R RT aT d) + tr(bT e) + tr(RT R cT f),

which adapts step lengths to the current spectrum; its solves are
entrywise divisions in R's singular bases.  Tangent vectors are
represented by their horizontal lifts: triples whose projection kills the
group directions, which unpack as (dU, dR, dV).  Shapes and finiteness
are checked where values enter: by the constructors and by
``project_to_tangent`` on its ambient input.  The triples computed from
checked values (the arithmetic, both projections and the gradient) are
built by ``TangentTriple._at``, which skips that scan; an overflow in them
shows in the solver's cost and gradient norm.  The membership conditions
(orthonormal U, V, invertible R, tangency and horizontality) are not
checked here: the projections establish them, and the test suite checks
them on every object it builds.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolationError,
    DimensionError,
    RetractionError,
    SingularMatrixError,
)
from .rng import CounterRng
from .smallmat import (
    polar_orthonormal_factor,
    skew,
    solve_coupled_in_basis,
    thin_svd,
)


def _as_factor(name, a, rows=None, cols=None):
    a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    if a.ndim != 2:
        raise DimensionError("%s must be a matrix" % name)
    if rows is not None and a.shape[0] != rows:
        raise DimensionError("%s has %d rows, expected %d" % (name, a.shape[0], rows))
    if cols is not None and a.shape[1] != cols:
        raise DimensionError("%s has %d cols, expected %d" % (name, a.shape[1], cols))
    if not np.all(np.isfinite(a)):
        raise ContractViolationError("%s contains non-finite values" % name)
    return a


@dataclass(frozen=True)
class FixedRankPoint:
    """Factor triple (U, R, V), U and V orthonormal, R invertible; the constructor
    forms R's SVD ``svd`` = (W, sig, Z) and the ``weights`` (R RT, RT R)."""

    U: np.ndarray
    R: np.ndarray
    V: np.ndarray
    svd: tuple = field(init=False, repr=False, compare=False)
    weights: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "U", _as_factor("U", self.U))
        object.__setattr__(self, "R", _as_factor("R", self.R, cols=self.U.shape[1]))
        object.__setattr__(self, "V", _as_factor("V", self.V, cols=self.U.shape[1]))
        if self.R.shape[0] != self.R.shape[1]:
            raise DimensionError("R must be square")
        if self.r > min(self.n, self.m):
            raise DimensionError("rank exceeds min(n, m)")
        object.__setattr__(self, "svd", thin_svd(self.R))
        object.__setattr__(self, "weights", (self.R @ self.R.T, self.R.T @ self.R))

    @property
    def n(self):
        return self.U.shape[0]

    @property
    def m(self):
        return self.V.shape[0]

    @property
    def r(self):
        return self.R.shape[1]

    def matrix(self):
        """Dense n x m product U R VT (test sizes only)."""
        return self.U @ self.R @ self.V.T


@dataclass
class TangentTriple:
    """Per-factor displacement (dU, dR, dV) anchored at a point.

    dU and dV satisfy the Stiefel tangency conditions UT dU and VT dV
    skew-symmetric; dR is unconstrained.
    """

    point: FixedRankPoint
    dU: np.ndarray
    dR: np.ndarray
    dV: np.ndarray

    def __post_init__(self):
        x = self.point
        self.dU = _as_factor("dU", self.dU, rows=x.n, cols=x.r)
        self.dR = _as_factor("dR", self.dR, rows=x.r, cols=x.r)
        self.dV = _as_factor("dV", self.dV, rows=x.m, cols=x.r)

    @classmethod
    def _at(cls, point, du, dr, dv):
        """The triple at ``point`` of C-ordered float64 blocks of its shapes,
        computed from checked values, built without the constructor's checks."""
        xi = cls.__new__(cls)
        xi.point, xi.dU, xi.dR, xi.dV = point, du, dr, dv
        return xi

    def __iter__(self):
        return iter((self.dU, self.dR, self.dV))

    def _like(self, du, dr, dv):
        return type(self)._at(self.point, du, dr, dv)

    def __add__(self, other):
        if not isinstance(other, TangentTriple):
            return NotImplemented
        return self._like(self.dU + other.dU, self.dR + other.dR, self.dV + other.dV)

    def __sub__(self, other):
        if not isinstance(other, TangentTriple):
            return NotImplemented
        return self._like(self.dU - other.dU, self.dR - other.dR, self.dV - other.dV)

    def __neg__(self):
        return self._like(-self.dU, -self.dR, -self.dV)

    def __mul__(self, scalar):
        c = float(scalar)
        return self._like(c * self.dU, c * self.dR, c * self.dV)

    __rmul__ = __mul__


class HorizontalVector(TangentTriple):
    """Tangent triple orthogonal to the group directions in the metric."""


def _horizontality_residual(x, du, dr, dv):
    """(C1, C2) = (Skew(UT dU W1 + R dRT), Skew(VT dV W2 + RT dR)); both
    vanish exactly on the horizontal space."""
    w1, w2 = x.weights
    return skew(x.U.T @ du @ w1 + x.R @ dr.T), skew(x.V.T @ dv @ w2 + x.R.T @ dr)


def metric(x, xi, eta):
    """Inner product tr(R RT dUxT dUe) + tr(dRxT dRe) + tr(RT R dVxT dVe)."""
    w1, w2 = x.weights
    return float(
        np.sum((xi.dU @ w1) * eta.dU)
        + np.sum(xi.dR * eta.dR)
        + np.sum((xi.dV @ w2) * eta.dV)
    )


def norm(x, xi):
    return float(np.sqrt(max(metric(x, xi, xi), 0.0)))


def check_weights(x):
    """Raise SingularMatrixError unless the weights diag(sig^2) of x are positive
    definite to an eigensolve's rounding of R RT: sig_min^2 > r eps sig_max^2."""
    ratio = x.svd[1][-1] / x.svd[1][0]
    # one comparison that a NaN ratio (a zero R) fails too
    if not ratio * ratio > x.r * np.finfo(np.float64).eps:
        raise SingularMatrixError("metric weights are singular (ratio %.3e)" % ratio)


def normal_coordinates(x, t):
    """c o (T + TT), c_ij = sig_i^2 / (sig_i^2 + sig_j^2): for T = WT UT zU W,
    the normal part U S W1^{-1} of an ambient zU in R's left singular basis,
    WT S W1^{-1} W (on the V side, in Z).  As c_ij + c_ji = 1, subtracting
    it leaves UT dU skew to rounding at any cond(R)."""
    s2 = (x.svd[1] / x.svd[1][0]) ** 2
    return s2[:, None] / (s2[:, None] + s2[None, :]) * (t + t.T)


def project_to_tangent(x, ambient):
    """Metric-orthogonal projection of an ambient triple onto the tangent space.

    With R = W diag(sig) ZT, the U component subtracts
    U W (c o WT (UT zU + zUT U) W) WT (``normal_coordinates``), the V side
    likewise with V, zV and Z; the R component passes through unchanged.
    """
    zu, zr, zv = ambient
    zu = _as_factor("zU", zu, rows=x.n, cols=x.r)
    zr = _as_factor("zR", zr, rows=x.r, cols=x.r)
    zv = _as_factor("zV", zv, rows=x.m, cols=x.r)
    w, _, z = x.svd
    du = zu - x.U @ (w @ normal_coordinates(x, w.T @ (x.U.T @ zu) @ w) @ w.T)
    dv = zv - x.V @ (z @ normal_coordinates(x, z.T @ (x.V.T @ zv) @ z) @ z.T)
    return TangentTriple._at(x, du, zr, dv)


def project_to_horizontal(x, xi):
    """Project a tangent triple onto the horizontal space.

    Subtracts the vertical lift of the skew pair (O1, O2) solving the
    coupled Lyapunov system whose right-hand sides are
    C1 = Skew(UT dU R RT + R dRT) and C2 = Skew(VT dV RT R + RT dR).
    """
    if not isinstance(xi, TangentTriple):
        raise TypeError("project_to_horizontal expects a TangentTriple")
    o1, o2 = solve_coupled_in_basis(*x.svd, *_horizontality_residual(x, *xi))
    return HorizontalVector._at(
        x,
        xi.dU - x.U @ o1,
        xi.dR + o1 @ x.R - x.R @ o2,
        xi.dV - x.V @ o2,
    )


def retract(x, xi, step):
    """Move from x along the horizontal vector xi by step length ``step``.

    U and V shift and re-orthonormalize through the polar factor,
    R shifts additively.  A zero step returns x itself.  Raises
    RetractionError when a shifted U or V loses rank, or when the new
    point fails ``check_weights``, as the gradient there would (a stricter
    test than a singular value ratio of the shifted R at ``RANK_TOL``).
    """
    if not isinstance(xi, HorizontalVector):
        raise TypeError("retract expects a HorizontalVector")
    s = float(step)
    if s == 0.0:
        return x
    try:
        u_new = polar_orthonormal_factor(x.U + s * xi.dU)
        v_new = polar_orthonormal_factor(x.V + s * xi.dV)
    except SingularMatrixError as exc:
        raise RetractionError("shifted factor lost rank") from exc
    try:
        y = FixedRankPoint(u_new, x.R + s * xi.dR, v_new)
        check_weights(y)
    except SingularMatrixError as exc:
        raise RetractionError("metric weight of the shifted point is singular") from exc
    return y


def transport_to(y, eta):
    """Transport a horizontal vector to the point y (tangent then horizontal projection)."""
    return project_to_horizontal(y, project_to_tangent(y, eta))


def random_point(n, m, r, seed):
    """Random factor triple: polar factors of gaussian U, V and a gaussian R.

    The middle factor is resampled until its spectral condition is safely
    bounded (singular value ratio above 1e-6), so downstream metric solves
    start well posed.
    """
    rng = CounterRng(seed)
    u = polar_orthonormal_factor(rng.standard_normal((n, r)))
    v = polar_orthonormal_factor(rng.standard_normal((m, r)))
    while True:
        x = FixedRankPoint(u, rng.standard_normal((r, r)), v)
        if x.svd[1][-1] > 1e-6 * x.svd[1][0]:
            return x
