"""Quotient geometry: projections, metric, retraction, transport, symmetry."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import r3mc
from _geometry import (
    check_member,
    group_action,
    horizontality_defect,
    random_horizontal,
    reference_project_to_tangent,
    reference_riemannian_gradient,
    rotate_vector,
    tangency_defect,
    vertical_lift,
)
from r3mc import manifold
from r3mc import (
    ContractViolationError,
    DimensionError,
    SingularMatrixError,
    CounterRng,
    FixedRankPoint,
    HorizontalVector,
    ObservedEntries,
    RetractionError,
    TangentTriple,
    metric,
    norm,
    project_to_horizontal,
    project_to_tangent,
    random_point,
    retract,
    transport_to,
)
from r3mc.problem import CompletionProblem, evaluate, riemannian_gradient
from r3mc.smallmat import (
    RANK_TOL,
    polar_orthonormal_factor,
    skew,
    sym,
)


def metric_direct(x, xi, eta):
    """Plain-formula inner product, independent of the library path."""
    w1 = x.R @ x.R.T
    w2 = x.R.T @ x.R
    return float(
        ((xi.dU @ w1) * eta.dU).sum()
        + (xi.dR * eta.dR).sum()
        + ((xi.dV @ w2) * eta.dV).sum()
    )


def ambient_triple(rng, x):
    return (
        rng.standard_normal((x.n, x.r)),
        rng.standard_normal((x.r, x.r)),
        rng.standard_normal((x.m, x.r)),
    )


def independent_tangent(rng, x):
    """Tangent triple built without the library projection: subtract the
    symmetric part of the Stiefel coordinates directly."""
    zu, zr, zv = ambient_triple(rng, x)
    du = zu - x.U @ sym(x.U.T @ zu)
    dv = zv - x.V @ sym(x.V.T @ zv)
    return TangentTriple(x, du, zr, dv)


def random_orthogonal(rng, r):
    return polar_orthonormal_factor(rng.standard_normal((r, r)))


def conditioned_point(rng, n, m, r, scale, cond):
    """Random point whose R has singular values scale * cond^(-k / (r - 1)),
    k = 0..r-1, in random singular bases."""
    u = polar_orthonormal_factor(rng.standard_normal((n, r)))
    v = polar_orthonormal_factor(rng.standard_normal((m, r)))
    sig = scale * cond ** -np.linspace(0.0, 1.0, r)
    return FixedRankPoint(u, (random_orthogonal(rng, r) * sig) @ random_orthogonal(rng, r).T, v)


def metric_size(x, blocks):
    """Metric norm of the blocks (dU, dR, dV) at x, whether or not they are tangent."""
    du, dr, dv = blocks
    return float(np.sqrt(np.linalg.norm(du @ x.R) ** 2 + np.linalg.norm(dr) ** 2
                         + np.linalg.norm(dv @ x.R.T) ** 2))


def test_fixed_rank_point_shape_properties():
    x = random_point(9, 7, 3, 0)
    assert (x.n, x.m, x.r) == (9, 7, 3)
    assert x.matrix().shape == (9, 7)
    assert np.allclose(x.matrix(), x.U @ x.R @ x.V.T)


def test_fixed_rank_point_rejects_nonorthonormal_factor():
    x = random_point(6, 5, 2, 1)
    with pytest.raises(ContractViolationError):
        FixedRankPoint(2.0 * x.U, x.R, x.V)


def test_fixed_rank_point_rejects_singular_middle():
    x = random_point(6, 5, 2, 2)
    with pytest.raises(SingularMatrixError):
        FixedRankPoint(x.U, np.zeros((2, 2)), x.V)


def test_random_point_deterministic_and_well_conditioned():
    a = random_point(20, 15, 4, 33)
    b = random_point(20, 15, 4, 33)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.R, b.R)
    assert np.array_equal(a.V, b.V)
    for seed in range(50):
        x = random_point(10, 10, 5, seed)
        sv = np.linalg.svd(x.R, compute_uv=False)
        assert sv[-1] > 1e-6 * sv[0]


def test_tangent_triple_arithmetic_preserves_type():
    x = random_point(8, 6, 2, 3)
    rng = CounterRng(4)
    a = independent_tangent(rng, x)
    b = independent_tangent(rng, x)
    c = 2.0 * a - b + a * 0.5
    assert isinstance(c, TangentTriple)
    assert np.allclose(c.dU, 2.5 * a.dU - b.dU)
    h = random_horizontal(x, 5)
    assert isinstance(-h + 0.0 * h, HorizontalVector)


def test_tangent_triple_rejects_nontangent():
    x = random_point(8, 6, 2, 5)
    with pytest.raises(ContractViolationError):
        TangentTriple(x, np.ones((8, 2)), np.zeros((2, 2)), np.zeros((6, 2)))


def test_horizontal_vector_rejects_a_vertical_tangent():
    x = random_point(8, 6, 2, 5)
    lift = vertical_lift(x, skew(np.arange(4.0).reshape(2, 2)), np.zeros((2, 2)))
    with pytest.raises(ContractViolationError, match="not horizontal"):
        HorizontalVector(x, *lift)


@given(k=st.integers(-100, 100), j=st.integers(-100, 100))
def test_the_membership_check_is_scale_free(k, j):
    # (dU, a dR, dV) is horizontal at (U, a R, V) when (dU, dR, dV) is at
    # (U, R, V), and so is any multiple of it; the products of the check
    # grow like a^2 and the vector's size, and must neither overflow nor
    # hide a vertical part
    x = random_point(8, 6, 2, 5)
    h = random_horizontal(x, 6)
    a, s = 10.0**k, 10.0**j
    y = FixedRankPoint(x.U, a * x.R, x.V)
    scaled = HorizontalVector(y, s * h.dU, s * a * h.dR, s * h.dV)
    check_member(scaled)
    if j >= 0:
        # in a vector smaller than the point's factors, a vertical part can
        # hide under the floor that takes the rounding of a subtraction
        lift = vertical_lift(y, skew(np.arange(4.0).reshape(2, 2)), np.zeros((2, 2)))
        tilted = s * lift + scaled
        # tests/conftest.py runs check_member in the constructor
        with pytest.raises(ContractViolationError, match="not horizontal"):
            HorizontalVector(y, *tilted)


def test_metric_matches_direct_formula_and_is_positive():
    rng = CounterRng(6)
    for seed in range(30):
        x = random_point(9, 8, seed % 4 + 1, seed)
        a = independent_tangent(rng, x)
        b = independent_tangent(rng, x)
        assert metric(x, a, b) == pytest.approx(metric_direct(x, a, b), rel=1e-12)
        assert metric(x, a, b) == pytest.approx(metric(x, b, a), rel=1e-12)
        if norm(x, a) > 0:
            assert metric(x, a, a) > 0.0


def test_tangent_projection_lands_on_tangent_space_and_is_orthogonal():
    rng = CounterRng(7)
    for seed in range(50):
        x = random_point(10, 9, seed % 5 + 1, seed)
        z = ambient_triple(rng, x)
        psi = project_to_tangent(x, z)
        # attainable accuracy degrades with the squared condition of R
        sv = np.linalg.svd(x.R, compute_uv=False)
        amplification = (sv[0] / sv[-1]) ** 2
        zscale = 1.0 + max(np.linalg.norm(t) for t in z)
        assert tangency_defect(x, psi) <= 1e-12 * amplification * zscale
        # removed part is metric-orthogonal to independently built tangents
        for _ in range(5):
            xi = independent_tangent(rng, x)
            ip = (
                (((z[0] - psi.dU) @ (x.R @ x.R.T)) * xi.dU).sum()
                + ((z[1] - psi.dR) * xi.dR).sum()
                + (((z[2] - psi.dV) @ (x.R.T @ x.R)) * xi.dV).sum()
            )
            scale = max(1.0, norm(x, xi))
            assert abs(ip) <= 1e-8 * scale


def test_tangent_projection_idempotent_and_fixes_tangents():
    rng = CounterRng(8)
    for seed in range(30):
        x = random_point(9, 7, seed % 4 + 1, seed)
        psi = project_to_tangent(x, ambient_triple(rng, x))
        again = project_to_tangent(x, psi)
        scale = max(1.0, norm(x, psi))
        assert norm(x, again - psi) <= 1e-9 * scale
        xi = independent_tangent(rng, x)
        assert norm(x, project_to_tangent(x, xi) - xi) <= 1e-9 * max(1.0, norm(x, xi))


def test_horizontal_projection_idempotent_and_horizontal():
    rng = CounterRng(9)
    for seed in range(30):
        x = random_point(9, 8, seed % 5 + 1, seed)
        xi = project_to_tangent(x, ambient_triple(rng, x))
        h = project_to_horizontal(x, xi)
        assert horizontality_defect(x, h) <= 1e-9 * max(1.0, norm(x, h))
        again = project_to_horizontal(x, h)
        assert norm(x, again - h) <= 1e-9 * max(1.0, norm(x, h))


def test_horizontal_projection_removes_exactly_a_vertical_lift():
    rng = CounterRng(10)
    for seed in range(20):
        x = random_point(8, 7, seed % 4 + 2, seed)
        xi = project_to_tangent(x, ambient_triple(rng, x))
        h = project_to_horizontal(x, xi)
        o1 = x.U.T @ (xi.dU - h.dU)
        o2 = x.V.T @ (xi.dV - h.dV)
        assert np.allclose(o1, -o1.T, atol=1e-9)
        assert np.allclose(o2, -o2.T, atol=1e-9)
        lift = vertical_lift(x, skew(o1), skew(o2))
        assert norm(x, (xi - h) - lift) <= 1e-8 * max(1.0, norm(x, xi))


def test_vertical_lifts_annihilated_and_orthogonal_to_horizontals():
    rng = CounterRng(11)
    for seed in range(30):
        x = random_point(8, 9, seed % 5 + 1, seed)
        o1 = skew(rng.standard_normal((x.r, x.r)))
        o2 = skew(rng.standard_normal((x.r, x.r)))
        lift = vertical_lift(x, o1, o2)
        killed = project_to_horizontal(x, lift)
        assert norm(x, killed) <= 1e-9 * max(1.0, norm(x, lift))
        h = random_horizontal(x, seed + 1000)
        assert abs(metric_direct(x, h, lift)) <= 1e-9 * max(1.0, norm(x, lift))


def test_vertical_lift_requires_skew_generators():
    x = random_point(6, 6, 2, 12)
    with pytest.raises(ContractViolationError):
        vertical_lift(x, np.eye(2), np.zeros((2, 2)))


def test_retraction_returns_valid_point_and_fixes_zero_step():
    for seed in range(20):
        x = random_point(10, 8, seed % 4 + 1, seed)
        h = random_horizontal(x, seed + 50)
        y = retract(x, h, 0.7)
        assert np.allclose(y.U.T @ y.U, np.eye(x.r), atol=1e-10)
        assert np.allclose(y.V.T @ y.V, np.eye(x.r), atol=1e-10)
        assert retract(x, h, 0.0) is x


def test_retraction_is_first_order_accurate():
    x = random_point(12, 10, 3, 21)
    h = random_horizontal(x, 22)
    base = x.matrix()
    move = h.dU @ x.R @ x.V.T + x.U @ h.dR @ x.V.T + x.U @ x.R @ h.dV.T
    errs = []
    for s in (1e-3, 5e-4, 2.5e-4):
        errs.append(np.linalg.norm(retract(x, h, s).matrix() - base - s * move))
    # quadratic remainder: halving s quarters the error
    assert errs[1] <= 0.3 * errs[0]
    assert errs[2] <= 0.3 * errs[1]


def test_retraction_type_and_rank_guards():
    x = random_point(6, 6, 2, 23)
    h = random_horizontal(x, 24)
    with pytest.raises(TypeError):
        retract(x, TangentTriple(x, h.dU, h.dR, h.dV), 0.5)
    collapse = HorizontalVector(x, np.zeros((6, 2)), -x.R, np.zeros((6, 2)))
    with pytest.raises(RetractionError):
        retract(x, collapse, 1.0)


@given(r=st.sampled_from([2, 3, 5, 10, 20]), ratio=st.floats(0.0, RANK_TOL),
       scale=st.sampled_from([1e-50, 1e-10, 1.0, 1e10, 1e50]), seed=st.integers(0, 2**20))
def test_retraction_refuses_every_r_below_the_rank_tolerance(r, ratio, scale, seed):
    # retract tests the shifted R only through its singular values, against
    # r eps; that test refuses every R a singular value test at RANK_TOL
    # would refuse.  The membership check of tests/conftest.py refuses such
    # an R in the constructor, before retract's own test, so the
    # constructors run unchecked here
    rng = CounterRng(seed)
    sig = np.sort(np.exp(rng.uniform(r) * np.log(RANK_TOL)))[::-1]
    sig[0], sig[-1] = 1.0, ratio
    q1 = polar_orthonormal_factor(rng.standard_normal((r, r)))
    q2 = polar_orthonormal_factor(rng.standard_normal((r, r)))
    r_mid = scale * (q1 * sig) @ q2.T
    computed = np.linalg.svd(r_mid, compute_uv=False)
    assume(not computed[-1] > RANK_TOL * computed[0])
    u, zero = np.eye(r + 1, r), np.zeros((r + 1, r))
    with pytest.MonkeyPatch.context() as mp:
        for cls in (FixedRankPoint, TangentTriple):
            mp.setattr(cls, "__post_init__", cls.__post_init__.__wrapped__)
        # from R = 0, a unit step lands on R = r_mid exactly
        x = FixedRankPoint(u, np.zeros((r, r)), u)
        with pytest.raises(RetractionError, match="metric weight"):
            retract(x, HorizontalVector(x, zero, r_mid, zero), 1.0)


def test_retraction_refuses_a_point_whose_weights_are_not_positive_definite():
    # the new R = diag(1, 2e-12) has a singular value ratio above
    # RANK_TOL, but its weight R RT = diag(1, 4e-24) falls below
    # the floor r eps that an eigensolve of the weight would resolve
    u = np.eye(4, 2)
    x = FixedRankPoint(u, np.eye(2), u)
    dr = np.diag([0.0, -(1.0 - 2e-12)])
    xi = HorizontalVector(x, np.zeros((4, 2)), dr, np.zeros((4, 2)))
    sig = np.linalg.svd(x.R + dr, compute_uv=False)
    assert sig[-1] / sig[0] > 1e-12
    with pytest.raises(RetractionError, match="metric weight"):
        retract(x, xi, 1.0)
    assert retract(x, xi, 0.5).R[1, 1] == pytest.approx(0.5)


def test_transport_fixes_vectors_at_the_same_point():
    x = random_point(9, 7, 3, 25)
    h = random_horizontal(x, 26)
    back = transport_to(x, h)
    assert norm(x, back - h) <= 1e-9


def test_transport_lands_horizontal_at_target():
    x = random_point(9, 7, 3, 27)
    h = random_horizontal(x, 28)
    d = random_horizontal(x, 29)
    y = retract(x, d, 0.3)
    carried = transport_to(y, h)
    assert isinstance(carried, HorizontalVector)
    assert horizontality_defect(y, carried) <= 1e-9 * max(1.0, norm(y, carried))


def test_tangent_vectors_unpack_as_their_three_components():
    x = random_point(8, 6, 2, 31)
    h = random_horizontal(x, 32)
    du, dr, dv = h
    assert du is h.dU and dr is h.dR and dv is h.dV


@pytest.mark.parametrize("component, cut", [
    (0, np.s_[1:]), (0, np.s_[:, 1:]), (1, np.s_[1:]), (1, np.s_[:, 1:]),
    (2, np.s_[1:]), (2, np.s_[:, 1:]),
], ids=["zU-rows", "zU-cols", "zR-rows", "zR-cols", "zV-rows", "zV-cols"])
def test_project_to_tangent_checks_the_ambient_shapes(component, cut):
    # the only shape check between a vector and the point it is projected to
    x = random_point(8, 6, 2, 33)
    z = list(ambient_triple(CounterRng(34), x))
    z[component] = z[component][cut]
    with pytest.raises(DimensionError):
        project_to_tangent(x, z)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_values_are_checked_for_finiteness_where_they_enter(bad):
    x = random_point(8, 6, 2, 33)
    h = random_horizontal(x, 34)
    u = x.U.copy()
    u[3, 1] = bad
    du = h.dU.copy()
    du[3, 1] = bad
    with pytest.raises(ContractViolationError, match="non-finite"):
        FixedRankPoint(u, x.R, x.V)
    for cls in (TangentTriple, HorizontalVector):
        with pytest.raises(ContractViolationError, match="non-finite"):
            cls(x, du, h.dR, h.dV)
    with pytest.raises(ContractViolationError, match="non-finite"):
        project_to_tangent(x, (du, h.dR, h.dV))


def test_the_triples_computed_from_checked_values_skip_the_entry_scan(monkeypatch):
    x = random_point(8, 6, 2, 33)
    problem = CompletionProblem(ObservedEntries(
        8, 6, np.repeat(np.arange(8), 6), np.tile(np.arange(6), 8),
        CounterRng(35).standard_normal(48)), 2)
    scanned = []
    scan = manifold._as_factor
    monkeypatch.setattr(manifold, "_as_factor",
                        lambda name, *args, **kwargs: scanned.append(name)
                        or scan(name, *args, **kwargs))
    g = riemannian_gradient(problem, evaluate(problem, x))
    eta = -g + 0.5 * (g - g * 2.0)
    assert isinstance(eta, HorizontalVector)
    tangent = TangentTriple._at(x, g.dU, g.dR, g.dV)
    assert isinstance(project_to_horizontal(x, tangent), HorizontalVector)
    assert scanned == []
    # the ambient input of a projection, and so of a transport, is scanned
    transport_to(x, eta)
    assert scanned == ["zU", "zR", "zV"]


def test_transport_from_a_point_of_another_rank_is_a_dimension_error():
    x, y = random_point(8, 6, 2, 35), random_point(8, 6, 3, 36)
    with pytest.raises(DimensionError):
        transport_to(y, random_horizontal(x, 37))


def test_group_action_preserves_matrix_and_composes():
    rng = CounterRng(30)
    for seed in range(20):
        x = random_point(8, 8, 3, seed)
        o1 = random_orthogonal(rng, 3)
        o2 = random_orthogonal(rng, 3)
        y = group_action(x, o1, o2)
        assert np.allclose(y.matrix(), x.matrix(), atol=1e-12)
        p1 = random_orthogonal(rng, 3)
        p2 = random_orthogonal(rng, 3)
        once = group_action(group_action(x, o1, o2), p1, p2)
        combined = group_action(x, o1 @ p1, o2 @ p2)
        assert np.allclose(once.matrix(), combined.matrix(), atol=1e-12)
        assert np.allclose(once.U, combined.U, atol=1e-12)


def test_group_action_requires_orthogonal_generators():
    x = random_point(6, 6, 2, 31)
    with pytest.raises(ContractViolationError):
        group_action(x, 2.0 * np.eye(2), np.eye(2))


def test_metric_is_invariant_under_the_group():
    rng = CounterRng(32)
    for seed in range(20):
        x = random_point(9, 8, 3, seed)
        a = random_horizontal(x, seed + 10)
        b = random_horizontal(x, seed + 20)
        o1 = random_orthogonal(rng, 3)
        o2 = random_orthogonal(rng, 3)
        y = group_action(x, o1, o2)
        ra = rotate_vector(x, a, o1, o2)
        rb = rotate_vector(x, b, o1, o2)
        assert metric(y, ra, rb) == pytest.approx(metric(x, a, b), rel=1e-10, abs=1e-12)


def test_retraction_is_equivariant_under_the_group():
    rng = CounterRng(33)
    x = random_point(10, 9, 3, 34)
    h = random_horizontal(x, 35)
    o1 = random_orthogonal(rng, 3)
    o2 = random_orthogonal(rng, 3)
    y = group_action(x, o1, o2)
    rh = rotate_vector(x, h, o1, o2)
    left = retract(y, rh, 0.4).matrix()
    right = retract(x, h, 0.4).matrix()
    assert np.allclose(left, right, atol=1e-11)


def test_random_horizontal_unit_norm_and_deterministic():
    x = random_point(11, 9, 4, 36)
    h = random_horizontal(x, 37)
    assert norm(x, h) == pytest.approx(1.0, rel=1e-12)
    h2 = random_horizontal(x, 37)
    assert np.array_equal(h.dU, h2.dU)
    assert np.array_equal(h.dR, h2.dR)
    assert np.array_equal(h.dV, h2.dV)


def test_tangent_projection_holds_at_an_ill_conditioned_random_point():
    # R's singular values span 4.6 to 4.5e-4, inside random_point's
    # resampling floor of 1e-6; the projection works in R's singular
    # bases, so its tangency defect does not grow with cond(R)
    x = random_point(5, 8, 5, 5)
    h = random_horizontal(x, 6)
    assert tangency_defect(x, h) <= 1e-14 * max(np.linalg.norm(h.dU), np.linalg.norm(h.dV))


@given(n=st.integers(1, 40), m=st.integers(1, 40), r=st.integers(1, 12),
       log_scale=st.floats(-3.0, 3.0), log_cond=st.floats(0.0, 8.0),
       seed=st.integers(0, 2**20))
def test_tangent_projection_is_tangent_to_rounding_at_any_condition(n, m, r, log_scale,
                                                                    log_cond, seed):
    # UT dU and VT dV are skew to rounding, relative to the ambient blocks,
    # with a bound that does not depend on cond(R)
    assume(r <= min(n, m))
    rng = CounterRng(seed)
    x = conditioned_point(rng, n, m, r, 10.0**log_scale, 10.0**log_cond)
    z = ambient_triple(rng, x)
    psi = project_to_tangent(x, z)
    assert np.linalg.norm(sym(x.U.T @ psi.dU)) <= 1e-13 * np.linalg.norm(z[0])
    assert np.linalg.norm(sym(x.V.T @ psi.dV)) <= 1e-13 * np.linalg.norm(z[2])


@given(k=st.integers(-150, 150))
def test_projections_are_scale_free(k):
    # at (U, a R, V), the projections of (zU, a zR, zV) are those of
    # (zU, zR, zV) at (U, R, V) with their R block a times larger; no power
    # of sigma(R) above the second is formed, so none overflows or
    # underflows while a^2 does not
    x = random_point(8, 6, 3, 5)
    a = 10.0**k
    y = FixedRankPoint(x.U, a * x.R, x.V)
    zu, zr, zv = ambient_triple(CounterRng(6), x)
    want = project_to_horizontal(x, project_to_tangent(x, (zu, zr, zv)))
    got = project_to_horizontal(y, project_to_tangent(y, (zu, a * zr, zv)))
    for g, w, f in zip(got, want, (1.0, a, 1.0)):
        assert np.linalg.norm(g / f - w) <= 1e-12 * np.linalg.norm(w)


@given(k=st.integers(-300, 300))
def test_gradient_is_scale_free(k):
    # with data a times larger, the gradient at (U, a R, V) is the one at
    # (U, R, V) with its R block a times larger: it divides by sigma(R)
    # and forms no power of it, so it holds wherever the data is finite
    x = random_point(8, 6, 3, 5)
    a = 10.0**k
    rows, cols = np.repeat(np.arange(8), 6), np.tile(np.arange(6), 8)
    vals = CounterRng(7).standard_normal(48)
    problem = CompletionProblem(ObservedEntries(8, 6, rows, cols, vals), 3)
    scaled = CompletionProblem(ObservedEntries(8, 6, rows, cols, a * vals), 3)
    want = riemannian_gradient(problem, evaluate(problem, x))
    # the weights R RT and the squared error, which the gradient does not
    # read, overflow from about 1e154
    with np.errstate(over="ignore"):
        y = FixedRankPoint(x.U, a * x.R, x.V)
        got = riemannian_gradient(scaled, evaluate(scaled, y))
    for g, w, f in zip(got, want, (1.0, a, 1.0)):
        assert np.linalg.norm(g / f - w) <= 1e-12 * np.linalg.norm(w)


def test_tangent_projection_matches_the_weight_solve_reference():
    # the reference divides by R RT and RT R, so it loses about cond(R)^3
    # eps in the metric: 1e-11 at cond(R) = 100, 3e-8 at 1e3
    rng = CounterRng(40)
    for trial in range(200):
        r = trial % 12 + 1
        x = conditioned_point(rng, r + trial % 7, r + trial % 5, r,
                              10.0 ** (trial % 7 - 3), 10.0 ** (trial % 5 / 2))
        z = ambient_triple(rng, x)
        got = project_to_tangent(x, z)
        want = reference_project_to_tangent(x, z)
        diff = [a - b for a, b in zip(got, want)]
        assert metric_size(x, diff) <= 1e-10 * metric_size(x, z)


def test_gradient_matches_the_weight_solve_reference_and_is_horizontal(kernel_path):
    rng = CounterRng(41)
    for trial in range(100):
        r = trial % 12 + 1
        n, m = r + trial % 7, r + trial % 5 + 3
        x = conditioned_point(rng, n, m, r, 10.0 ** (trial % 7 - 3), 10.0 ** (trial % 5 / 2))
        count = min(n * m, 3 * r * (n + m - r))
        cells = np.sort(rng.permutation(n * m)[:count])
        problem = CompletionProblem(ObservedEntries(
            n, m, cells // m, cells % m, rng.standard_normal(count)), r)
        ev = evaluate(problem, x)
        g = riemannian_gradient(problem, ev)
        want = reference_riemannian_gradient(problem, ev)
        assert metric_size(x, [a - b for a, b in zip(g, want)]) <= 1e-10 * norm(x, g)
        # both horizontality conditions hold to rounding of their terms
        w1, w2 = x.weights
        size = np.linalg.norm(x.R) * np.linalg.norm(g.dR)
        c1 = skew(x.U.T @ g.dU @ w1 + x.R @ g.dR.T)
        c2 = skew(x.V.T @ g.dV @ w2 + x.R.T @ g.dR)
        assert np.linalg.norm(c1) <= 1e-13 * (np.linalg.norm(g.dU) * np.linalg.norm(w1) + size)
        assert np.linalg.norm(c2) <= 1e-13 * (np.linalg.norm(g.dV) * np.linalg.norm(w2) + size)


def test_package_sets_no_module_state():
    """No ``global`` statement: a module-level switch would give the
    package a second configuration that tests and benchmarks must cover."""
    package = Path(r3mc.__file__).parent
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
    ]
    assert found == []
