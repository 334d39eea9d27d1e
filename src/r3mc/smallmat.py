"""Dense kernels on small square blocks: Lyapunov solves, polar factors.

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


def spd_factorization(p):
    """(eigenvalues, eigenvectors) of a symmetric positive definite matrix,
    eigenvalues descending; raises if not SPD.

    An eigenvalue counts as nonpositive when it falls below the rounding
    noise of the eigensolve itself, size * eps * max eigenvalue.  Scaled
    metric solves legitimately see eigenvalue ratios near the square of
    the factor condition number, so no coarser cutoff is safe here.
    """
    vals, vecs = np.linalg.eigh(sym(p))
    # eigh's ascending order reversed, in a column-major copy: the products
    # with vecs round differently in other layouts
    vals, vecs = vals[::-1], np.asfortranarray(vecs[:, ::-1])
    floor = vals.size * np.finfo(np.float64).eps * max(vals[0], 0.0)
    # one comparison that a NaN eigenvalue (from non-finite input) fails too
    if not vals[-1] > floor:
        raise SingularMatrixError(
            "matrix is not positive definite (min eigenvalue %.3e)" % vals[-1]
        )
    return vals, vecs


def polar_orthonormal_factor(a):
    """Orthonormal polar factor uf(A) = A (AT A)^{-1/2} via the thin SVD."""
    try:
        w, s, zt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("polar factor undefined: %s" % exc) from exc
    if not s[-1] > RANK_TOL * s[0]:
        raise SingularMatrixError(
            "polar factor undefined: singular value ratio %.3e"
            % (s[-1] / s[0] if s[0] > 0.0 else 0.0)
        )
    return w @ zt


def solve_lyapunov_spd(p, q):
    """Solve P B + B P = Q for symmetric B, with P SPD and Q symmetric.

    Diagonalizing P = E diag(lam) ET turns the equation into
    B'_ij = Q'_ij / (lam_i + lam_j) in the eigenbasis.
    """
    lam, e = spd_factorization(p)
    qp = e.T @ sym(q) @ e
    b = e @ (qp / (lam[:, None] + lam[None, :])) @ e.T
    return sym(b)


def solve_coupled_lyapunov(r, c1, c2):
    """Solve the coupled pair for skew (O1, O2) given invertible R and
    skew C1, C2:

        O1 (R RT) + (R RT) O1 - R O2 RT = C1
        O2 (RT R) + (RT R) O2 - RT O1 R = C2

    With R = W diag(sig) ZT and primed variables O1' = WT O1 W,
    O2' = ZT O2 Z, the pair decouples entrywise:

        a_ij O1'_ij - b_ij O2'_ij = C1'_ij
        a_ij O2'_ij - b_ij O1'_ij = C2'_ij

    where a_ij = sig_i^2 + sig_j^2 and b_ij = sig_i sig_j, so

        O1' = (a C1' + b C2') / (a^2 - b^2)
        O2' = (a C2' + b C1') / (a^2 - b^2).

    The determinant a^2 - b^2 is at least 3 sig_min^4, checked before
    dividing.
    """
    try:
        w, sig, zt = np.linalg.svd(r)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("R is numerically singular: %s" % exc) from exc
    if not sig[-1] > RANK_TOL * sig[0]:
        raise SingularMatrixError("R is numerically singular")
    z = zt.T
    c1p = w.T @ c1 @ w
    c2p = z.T @ c2 @ z
    a = sig[:, None] ** 2 + sig[None, :] ** 2
    b = sig[:, None] * sig[None, :]
    det = a * a - b * b
    bound = 3.0 * sig[-1] ** 4
    if det.min() < 0.5 * bound:
        raise SingularMatrixError(
            "coupled system determinant %.3e below bound %.3e" % (det.min(), bound)
        )
    o1 = w @ ((a * c1p + b * c2p) / det) @ w.T
    o2 = z @ ((a * c2p + b * c1p) / det) @ z.T
    return skew(o1), skew(o2)
