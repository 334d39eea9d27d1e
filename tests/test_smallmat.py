"""Small dense kernels against independent dense oracles."""

import numpy as np
import pytest
import scipy.linalg

from r3mc import CounterRng, SingularMatrixError
from r3mc.smallmat import (
    polar_orthonormal_factor,
    skew,
    solve_coupled_lyapunov,
    solve_lyapunov_spd,
    sym,
)


def random_spd(rng, r, spread=1.0):
    a = rng.standard_normal((r, r))
    return a @ a.T + spread * np.eye(r)


def test_sym_skew_decompose_and_idempotent():
    rng = CounterRng(0)
    for _ in range(20):
        a = rng.standard_normal((5, 5))
        s, k = sym(a), skew(a)
        assert np.allclose(s + k, a, atol=1e-15)
        assert np.array_equal(s, s.T)
        assert np.array_equal(k, -k.T)
        assert np.array_equal(sym(s), s)
        assert np.array_equal(skew(k), k)


def test_polar_factor_matches_scipy():
    rng = CounterRng(2)
    for shape in ((4, 4), (8, 3), (20, 6)):
        a = rng.standard_normal(shape)
        got = polar_orthonormal_factor(a)
        want, _ = scipy.linalg.polar(a, side="right")
        assert np.allclose(got, want, atol=1e-12)
        assert np.allclose(got.T @ got, np.eye(shape[1]), atol=1e-13)


def test_polar_factor_identity_on_orthonormal_input():
    rng = CounterRng(3)
    q = polar_orthonormal_factor(rng.standard_normal((7, 4)))
    assert np.allclose(polar_orthonormal_factor(q), q, atol=1e-13)


@pytest.mark.parametrize("a", [
    np.ones((5, 3)),
    np.zeros((5, 3)),
    # the SVD of an overflowed operand has NaN singular values
    np.array([[np.inf, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    # and its SVD does not converge on a NaN one
    np.array([[np.nan, 0.0], [0.0, 1.0], [1.0, 1.0]]),
], ids=["rank-one", "zero", "overflowed", "nan"])
def test_polar_factor_rejects_rank_deficient(a):
    with pytest.raises(SingularMatrixError):
        polar_orthonormal_factor(a)


def vec(mat):
    return mat.ravel()


def lyapunov_kronecker(p, q):
    """Dense row-major Kronecker solve of P B + B P = Q."""
    r = p.shape[0]
    eye = np.eye(r)
    k = np.kron(p, eye) + np.kron(eye, p)
    return np.linalg.solve(k, vec(q)).reshape(r, r)


def test_lyapunov_spd_matches_kronecker_oracle():
    rng = CounterRng(4)
    # tied spectra too: the eigenbasis of a repeated eigenvalue is not unique
    tied = [3.0 * np.eye(3), np.diag([2.0, 1.0, 1.0, 3.0])]
    spd = [random_spd(rng, trial % 8 + 1, spread=0.1) for trial in range(1000)]
    for p in spd + tied:
        r = p.shape[0]
        q = sym(rng.standard_normal((r, r)))
        got = solve_lyapunov_spd(p, q)
        want = lyapunov_kronecker(p, q)
        assert np.allclose(got, want, atol=1e-9 * max(1.0, np.abs(want).max()))
        assert np.allclose(p @ got + got @ p, q, atol=1e-9)


@pytest.mark.parametrize("p", [
    np.diag([1.0, -1.0]),
    np.zeros((2, 2)),
    # below the eigensolve's own rounding floor, size * eps * max eigenvalue
    np.diag([1.0, 4e-24]),
    # an overflowed block has NaN eigenvalues, which fail the test too
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
], ids=["indefinite", "zero", "below-floor", "overflowed", "nan"])
def test_lyapunov_spd_rejects_a_matrix_that_is_not_positive_definite(p):
    with pytest.raises(SingularMatrixError, match="not positive definite"):
        solve_lyapunov_spd(p, np.eye(2))


def test_lyapunov_spd_symmetric_output():
    rng = CounterRng(5)
    p = random_spd(rng, 6)
    q = sym(rng.standard_normal((6, 6)))
    b = solve_lyapunov_spd(p, q)
    assert np.array_equal(b, b.T)


def coupled_kronecker(r_mid, c1, c2):
    """Dense row-major Kronecker solve of the coupled skew system

        O1 W1 + W1 O1 - R O2 RT = C1
        O2 W2 + W2 O2 - RT O1 R = C2

    with W1 = R RT and W2 = RT R.
    """
    r = r_mid.shape[0]
    eye = np.eye(r)
    w1 = r_mid @ r_mid.T
    w2 = r_mid.T @ r_mid
    k11 = np.kron(eye, w1) + np.kron(w1, eye)
    k12 = -np.kron(r_mid, r_mid)
    k21 = -np.kron(r_mid.T, r_mid.T)
    k22 = np.kron(eye, w2) + np.kron(w2, eye)
    k = np.block([[k11, k12], [k21, k22]])
    rhs = np.concatenate([vec(c1), vec(c2)])
    sol = np.linalg.solve(k, rhs)
    return sol[: r * r].reshape(r, r), sol[r * r :].reshape(r, r)


def test_coupled_lyapunov_matches_kronecker_oracle():
    rng = CounterRng(6)
    for trial in range(1000):
        r = trial % 8 + 1
        r_mid = rng.standard_normal((r, r))
        c1 = skew(rng.standard_normal((r, r)))
        c2 = skew(rng.standard_normal((r, r)))
        got1, got2 = solve_coupled_lyapunov(r_mid, c1, c2)
        want1, want2 = coupled_kronecker(r_mid, c1, c2)
        scale = max(1.0, np.abs(want1).max(), np.abs(want2).max())
        assert np.allclose(got1, want1, atol=1e-8 * scale)
        assert np.allclose(got2, want2, atol=1e-8 * scale)


def test_coupled_lyapunov_solves_the_equations():
    rng = CounterRng(7)
    for _ in range(50):
        r_mid = rng.standard_normal((4, 4))
        w1, w2 = r_mid @ r_mid.T, r_mid.T @ r_mid
        c1 = skew(rng.standard_normal((4, 4)))
        c2 = skew(rng.standard_normal((4, 4)))
        o1, o2 = solve_coupled_lyapunov(r_mid, c1, c2)
        assert np.array_equal(o1, -o1.T)
        assert np.array_equal(o2, -o2.T)
        assert np.allclose(o1 @ w1 + w1 @ o1 - r_mid @ o2 @ r_mid.T, c1, atol=1e-9)
        assert np.allclose(o2 @ w2 + w2 @ o2 - r_mid.T @ o1 @ r_mid, c2, atol=1e-9)


def test_coupled_lyapunov_identity_closed_form():
    # W1 = W2 = I gives 2 O1 - O2 = C1 and 2 O2 - O1 = C2, hence
    # O1 = (2 C1 + C2) / 3 and O2 = (2 C2 + C1) / 3.
    rng = CounterRng(8)
    c1 = skew(rng.standard_normal((5, 5)))
    c2 = skew(rng.standard_normal((5, 5)))
    o1, o2 = solve_coupled_lyapunov(np.eye(5), c1, c2)
    assert np.allclose(o1, (2 * c1 + c2) / 3.0, atol=1e-13)
    assert np.allclose(o2, (2 * c2 + c1) / 3.0, atol=1e-13)


@pytest.mark.parametrize("k", [-150, -100, -60, 60, 100, 150])
def test_coupled_lyapunov_is_scale_free(k):
    # (a R, a^2 C1, a^2 C2) has the solution of (R, C1, C2): the fourth
    # powers of R's singular values, which overflow or underflow at these
    # scales, are never formed
    rng = CounterRng(9)
    r_mid = rng.standard_normal((4, 4))
    c1 = skew(rng.standard_normal((4, 4)))
    c2 = skew(rng.standard_normal((4, 4)))
    a = 10.0**k
    want = solve_coupled_lyapunov(r_mid, c1, c2)
    got = solve_coupled_lyapunov(a * r_mid, a * a * c1, a * a * c2)
    for g, w in zip(got, want):
        assert np.allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())


@pytest.mark.parametrize("r", [
    np.diag([1.0, 0.0]),
    np.zeros((2, 2)),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
], ids=["rank-one", "zero", "overflowed", "nan"])
def test_coupled_lyapunov_rejects_singular_middle(r):
    c = skew(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(SingularMatrixError):
        solve_coupled_lyapunov(r, c, c)
