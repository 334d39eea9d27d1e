"""Dense kernels on small square blocks: SVD, Lyapunov solves, polar factors.

Outputs with a structural guarantee (symmetric, skew-symmetric) are
returned in explicitly symmetrized form so the guarantee is exact, not
just within rounding.  Shapes and finiteness are not checked here:
callers pass blocks of known shape, built from the factors a
``FixedRankPoint`` or ``TangentTriple`` checked or computed from them.  The
kernels raise only ``SingularMatrixError``, on singular input; the
singular value and eigenvalue tests are each one comparison that a NaN
fails, so an overflowed block counts as singular, and an SVD that does not
converge (as on a NaN operand) is re-raised as singular too.
"""

import numpy as np

from .errors import SingularMatrixError

RANK_TOL = 1e-12


def sym(a):
    """Symmetric part (a + aT) / 2."""
    return (a + a.T) / 2.0


def skew(a):
    """Skew-symmetric part (a - aT) / 2."""
    return (a - a.T) / 2.0


def thin_svd(a):
    """Thin SVD a = W diag(sig) ZT as (W, sig, Z), sig descending; an SVD
    that does not converge is a SingularMatrixError."""
    try:
        w, sig, zt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("SVD did not converge: %s" % exc) from exc
    return w, sig, zt.T


def polar_orthonormal_factor(a):
    """Orthonormal polar factor uf(A) = A (AT A)^{-1/2} via the thin SVD."""
    w, s, z = thin_svd(a)
    if not s[-1] > RANK_TOL * s[0]:
        raise SingularMatrixError(
            "polar factor undefined: singular value ratio %.3e"
            % (s[-1] / s[0] if s[0] > 0.0 else 0.0)
        )
    return w @ z.T


def solve_lyapunov_spd(p, q):
    """Solve P B + B P = Q for symmetric B, with P SPD and Q symmetric.

    Diagonalizing P = E diag(lam) ET turns the equation into
    B'_ij = Q'_ij / (lam_i + lam_j) in the eigenbasis; P is refused below
    the eigensolve's own rounding noise, size * eps * max eigenvalue.
    """
    lam, e = np.linalg.eigh(sym(p))
    floor = lam.size * np.finfo(np.float64).eps * max(lam[-1], 0.0)
    # one comparison that a NaN eigenvalue (from non-finite input) fails too
    if not lam[0] > floor:
        raise SingularMatrixError(
            "matrix is not positive definite (min eigenvalue %.3e)" % lam[0]
        )
    qp = e.T @ sym(q) @ e
    b = e @ (qp / (lam[:, None] + lam[None, :])) @ e.T
    return sym(b)


def solve_coupled_lyapunov(r, c1, c2):
    """``solve_coupled_in_basis`` through the SVD of R."""
    return solve_coupled_in_basis(*thin_svd(r), c1, c2)


def solve_coupled_in_basis(w, sig, z, c1, c2):
    """Solve the coupled pair for skew (O1, O2) given an invertible
    R = W diag(sig) ZT by its SVD and skew C1, C2:

        O1 (R RT) + (R RT) O1 - R O2 RT = C1
        O2 (RT R) + (RT R) O2 - RT O1 R = C2

    With primed variables O1' = WT O1 W, O2' = ZT O2 Z, the pair
    decouples entrywise:

        a_ij O1'_ij - b_ij O2'_ij = C1'_ij
        a_ij O2'_ij - b_ij O1'_ij = C2'_ij

    where a_ij = sig_i^2 + sig_j^2 and b_ij = sig_i sig_j, so

        O1' = (a C1' + b C2') / (a^2 - b^2)
        O2' = (a C2' + b C1') / (a^2 - b^2).

    R counts as singular at a singular value ratio of at most ``RANK_TOL``.
    a and b are formed on s = sig / sig_max, the quotients divided by sig_max^2
    after: no power of sig overflows, and a^2 - b^2 >= 3 s_min^4 > 3e-48."""
    if not sig[-1] > RANK_TOL * sig[0]:
        raise SingularMatrixError("R is numerically singular")
    c1p = w.T @ c1 @ w
    c2p = z.T @ c2 @ z
    s = sig / sig[0]
    a = s[:, None] ** 2 + s[None, :] ** 2
    b = s[:, None] * s[None, :]
    det = a * a - b * b
    o1 = w @ ((a * c1p + b * c2p) / det / sig[0] / sig[0]) @ w.T
    o2 = z @ ((a * c2p + b * c1p) / det / sig[0] / sig[0]) @ z.T
    return skew(o1), skew(o2)
