"""Sparse objective kernels against dense oracles and the fancy-index
loops they replace."""

import dataclasses
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from _geometry import random_horizontal
from r3mc import (
    CompletionProblem,
    ContractViolationError,
    CounterRng,
    DegenerateDirectionError,
    DimensionError,
    FixedRankPoint,
    HorizontalVector,
    ObservedEntries,
    PointEvaluation,
    SingularMatrixError,
    SolverConfig,
    SparseResidual,
    SyntheticSpec,
    cg_solve,
    cost,
    direction_values,
    evaluate,
    initial_step,
    masked_values,
    mean_squared_error,
    op_count,
    random_point,
    reset_op_count,
    residual,
    riemannian_gradient,
    sparse_apply,
    synthesize,
)
from r3mc import problem as problem_module
from r3mc import solver as solver_module
from r3mc.data_io import sample_mask


def random_entries(n, m, count, seed, scale=1.0):
    rng = CounterRng(seed)
    rows, cols = sample_mask(n, m, count, seed)
    return ObservedEntries(n, m, rows, cols, scale * rng.standard_normal(count))


def dense_of(entries):
    d = np.zeros((entries.n, entries.m))
    d[entries.rows, entries.cols] = entries.vals
    return d


def test_observed_entries_sorted_row_major():
    e = ObservedEntries(3, 3, [2, 0, 1, 0], [1, 2, 0, 0], [1.0, 2.0, 3.0, 4.0])
    assert e.rows.tolist() == [0, 0, 1, 2]
    assert e.cols.tolist() == [0, 2, 0, 1]
    assert e.vals.tolist() == [4.0, 2.0, 3.0, 1.0]
    assert e.count == 4


def test_observed_entries_duplicate_reports_coordinates():
    with pytest.raises(ContractViolationError, match=r"\(1, 2\)"):
        ObservedEntries(3, 4, [1, 0, 1], [2, 1, 2], [1.0, 2.0, 3.0])


def test_observed_entries_rejects_out_of_range_and_nonfinite():
    with pytest.raises(ContractViolationError):
        ObservedEntries(2, 2, [2], [0], [1.0])
    with pytest.raises(ContractViolationError):
        ObservedEntries(2, 2, [0], [0], [np.inf])
    with pytest.raises(DimensionError):
        ObservedEntries(2, 2, [0, 1], [0], [1.0, 2.0])


def test_observed_entries_empty_pattern_allowed():
    e = ObservedEntries(3, 3, [], [], [])
    assert e.count == 0


def oracle_sorted_entries(rows, cols, vals):
    """The two-key lexsort and duplicate scan the cell-number sort replaced:
    (rows, cols, vals) row-major, or the duplicate message."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size > 1:
        same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if np.any(same):
            k = int(np.flatnonzero(same)[0])
            return "duplicate entry at (%d, %d)" % (rows[k], cols[k])
    return rows.tolist(), cols.tolist(), vals.view(np.int64).tolist()


def sorted_entries(n, m, rows, cols, vals):
    try:
        e = ObservedEntries(n, m, rows, cols, vals)
    except ContractViolationError as exc:
        return str(exc)
    assert e.rows.dtype == e.cols.dtype == np.int64 and e.vals.dtype == np.float64
    return e.rows.tolist(), e.cols.tolist(), e.vals.view(np.int64).tolist()


@given(data=st.data(), n=st.integers(1, 7), m=st.integers(1, 7),
       repeats=st.booleans(), presorted=st.booleans())
def test_observed_entries_sort_like_the_lexsort(data, n, m, repeats, presorted):
    cells = data.draw(st.lists(st.integers(0, n * m - 1), unique=not repeats,
                               max_size=2 * n * m), label="cells")
    if presorted:
        cells.sort()
    vals = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              min_size=len(cells), max_size=len(cells)), label="vals")
    rows, cols = np.divmod(np.array(cells, dtype=np.int64), m)
    assert sorted_entries(n, m, rows, cols, vals) == oracle_sorted_entries(rows, cols, vals)


@pytest.mark.parametrize("n, m", [
    (1, 2**63), (2**63, 1), (2**32, 2**31), (2**31, 2**32), (3, 2**61),
])
def test_observed_entries_sort_the_largest_grids(n, m):
    # cell numbers reach 2**63 - 1
    cells = [n * m - 1, (n * m) // 3, 1, (n * m) // 2, 0]
    vals = [1.0, 2.0, 3.0, 4.0, 5.0]
    for cells in (cells, sorted(cells)):
        rows, cols = zip(*(divmod(c, m) for c in cells))
        assert sorted_entries(n, m, rows, cols, vals) == oracle_sorted_entries(
            rows, cols, vals)
        rows, cols = rows + rows[1:2], cols + cols[1:2]
        assert sorted_entries(n, m, rows, cols, vals + [6.0]) == (
            "duplicate entry at (%d, %d)" % (rows[1], cols[1]))


def test_observed_entries_keep_sorted_triplets_without_a_sort():
    n, m = 400, 300
    rows, cols = sample_mask(n, m, 20000, 3)
    vals = CounterRng(4).standard_normal(rows.size)
    tracemalloc.start()
    try:
        e = ObservedEntries(n, m, rows, cols, vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # its own copies of the three arrays, and at most one cell-number key more
    assert peak <= e.rows.nbytes + e.cols.nbytes + e.vals.nbytes + 8 * e.count
    for own, theirs in ((e.rows, rows), (e.cols, cols), (e.vals, vals)):
        assert not np.shares_memory(own, theirs)
    shuffle = CounterRng(5).permutation(rows.size)
    s = ObservedEntries(n, m, rows[shuffle], cols[shuffle], vals[shuffle])
    for own, other in ((e.rows, s.rows), (e.cols, s.cols), (e.vals, s.vals)):
        assert own.tobytes() == other.tobytes()


@pytest.mark.parametrize("n, m", [(2**63 + 1, 1), (1, 2**64), (2**32, 2**31 + 1), (3, 2**62)])
def test_observed_entries_reject_grids_beyond_2_63_cells(n, m):
    with pytest.raises(DimensionError, match="exceeds 2\\*\\*63"):
        ObservedEntries(n, m, [0], [0], [1.0])


def test_completion_problem_validations_and_ratios():
    e = random_entries(10, 8, 40, 1)
    p = CompletionProblem(e, 2)
    assert p.dof == 2 * (10 + 8 - 2)
    assert p.oversampling == pytest.approx(40 / 32)
    with pytest.raises(ContractViolationError):
        CompletionProblem(ObservedEntries(3, 3, [], [], []), 1)
    with pytest.raises(ContractViolationError):
        CompletionProblem(e, 9)
    with pytest.raises(ContractViolationError):
        CompletionProblem(e, 0)


def gather_patterns(n, m, seed):
    """A random pattern, one with empty rows and columns (the last of each
    among them) and the empty pattern, all on an n x m grid."""
    rng = CounterRng(seed)
    rows, cols = np.meshgrid(np.arange(0, n - 1, 2), np.arange(1, m - 1, 2), indexing="ij")
    keep = rng.permutation(rows.size)[: rows.size // 2]
    return [
        random_entries(n, m, n * m // 3, seed + 1),
        ObservedEntries(n, m, rows.ravel()[keep], cols.ravel()[keep], np.zeros(keep.size)),
        ObservedEntries(n, m, [], [], []),
    ]


def layouts(a):
    """The same matrix C-ordered, Fortran-ordered and as a strided view."""
    wide = np.zeros((a.shape[0], 2 * a.shape[1]))
    wide[:, ::2] = a
    return [a.copy(), np.asfortranarray(a), wide[:, ::2]]


def laid_out(x, xi):
    """(point, tangent) pairs equal to (x, xi), built from factors in each layout."""
    pairs = []
    for k, (u, r, v) in enumerate(zip(layouts(x.U), layouts(x.R), layouts(x.V))):
        y = FixedRankPoint(u, r, v)
        du, dr, dv = layouts(xi.dU)[k], layouts(xi.dR)[k - 1], layouts(xi.dV)[k - 2]
        pairs.append((y, HorizontalVector(y, du, dr, dv)))
    return pairs


def test_masked_values_match_dense_model():
    for seed in range(10):
        x = random_point(7, 9, 3, seed)
        e = random_entries(7, 9, 20, seed + 100)
        got = masked_values(x, e)
        want = x.matrix()[e.rows, e.cols]
        assert np.allclose(got, want, atol=1e-13)
    # ranks 1 and 7, factors in any memory layout, empty rows, columns and pattern
    for r in (1, 7):
        base = random_point(9, 11, r, 40 + r)
        for x, _ in laid_out(base, random_horizontal(base, 41 + r)):
            for e in gather_patterns(9, 11, 7 * r):
                got = masked_values(x, e)
                assert got.shape == (e.count,)
                np.testing.assert_allclose(got, base.matrix()[e.rows, e.cols],
                                           rtol=0, atol=1e-13)


def test_masked_values_rejects_grid_mismatch():
    x = random_point(7, 9, 3, 0)
    e = random_entries(8, 9, 20, 1)
    with pytest.raises(DimensionError):
        masked_values(x, e)


def test_sparse_apply_matches_dense_products():
    rng = CounterRng(2)
    patterns = [random_entries(6, 8, 25, seed + 10) for seed in range(10)]
    # rows 2 and 5 and columns 3 and 7 are empty, the last row and the
    # last column among them, so both orientations rely on minlength
    rows, cols = np.meshgrid([0, 1, 3, 4], [0, 1, 2, 4, 5, 6], indexing="ij")
    keep = rng.permutation(24)[:15]
    patterns.append(ObservedEntries(6, 8, rows.ravel()[keep], cols.ravel()[keep],
                                    np.zeros(15)))
    patterns.append(ObservedEntries(6, 8, [], [], []))
    for e in patterns:
        s = SparseResidual(e, rng.standard_normal(e.count))
        dense = dense_of(ObservedEntries(e.n, e.m, e.rows, e.cols, s.vals))
        b = rng.standard_normal((8, 3))
        c = rng.standard_normal((6, 3))
        np.testing.assert_allclose(sparse_apply(s, b), dense @ b, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sparse_apply(s, c, transpose=True), dense.T @ c,
                                   rtol=0, atol=1e-12)


def test_residual_is_scaled_error():
    x = random_point(6, 7, 2, 3)
    e = random_entries(6, 7, 18, 4)
    p = CompletionProblem(e, 2)
    res = residual(p, evaluate(p, x))
    plain = x.matrix()[e.rows, e.cols] - e.vals
    assert np.allclose(res.vals, 2.0 * plain / 18.0, atol=1e-14)


def test_cost_is_mean_squared_error():
    x = random_point(6, 7, 2, 5)
    e = random_entries(6, 7, 18, 6)
    p = CompletionProblem(e, 2)
    plain = x.matrix()[e.rows, e.cols] - e.vals
    assert cost(p, x) == pytest.approx(float(plain @ plain) / 18.0, rel=1e-13)
    assert mean_squared_error(x, e) == pytest.approx(cost(p, x), rel=1e-13)


def test_mean_squared_error_rejects_empty_pattern():
    x = random_point(4, 4, 2, 7)
    with pytest.raises(ContractViolationError):
        mean_squared_error(x, ObservedEntries(4, 4, [], [], []))


def test_gradient_satisfies_the_defining_identity():
    # g(grad, xi) must equal the Frobenius pairing of the lifted euclidean
    # gradient (S V R^T, U^T S V, S^T U R) with xi, for every tangent xi.
    for seed in range(10):
        n, m, r = 9, 11, 3
        x = random_point(n, m, r, seed)
        e = random_entries(n, m, 50, seed + 50)
        p = CompletionProblem(e, r)
        ev = evaluate(p, x)
        grad = riemannian_gradient(p, ev)
        s_dense = dense_of(ObservedEntries(n, m, e.rows, e.cols, residual(p, ev).vals))
        for k in range(5):
            xi = random_horizontal(x, 1000 * seed + k)
            from r3mc import metric

            got = metric(x, grad, xi)
            want = float(
                np.sum((s_dense @ x.V @ x.R.T) * xi.dU)
                + np.sum((x.U.T @ s_dense @ x.V) * xi.dR)
                + np.sum((s_dense.T @ x.U @ x.R) * xi.dV)
            )
            assert got == pytest.approx(want, rel=1e-6, abs=1e-12)


def test_gradient_matches_finite_differences():
    from r3mc import retract

    for seed in range(5):
        x = random_point(12, 10, 3, seed)
        e = random_entries(12, 10, 70, seed + 9)
        p = CompletionProblem(e, 3)
        grad = riemannian_gradient(p, evaluate(p, x))
        xi = random_horizontal(x, seed + 77)
        from r3mc import metric

        slope = metric(x, grad, xi)
        h = 1e-6
        fd = (cost(p, retract(x, xi, h)) - cost(p, retract(x, xi, -h))) / (2 * h)
        assert fd == pytest.approx(slope, rel=1e-5, abs=1e-12)


def test_direction_values_match_dense_derivative():
    for seed in range(10):
        x = random_point(8, 9, 3, seed)
        e = random_entries(8, 9, 30, seed + 31)
        xi = random_horizontal(x, seed + 62)
        got = direction_values(x, xi, e)
        dense = (
            xi.dU @ x.R @ x.V.T + x.U @ xi.dR @ x.V.T + x.U @ x.R @ xi.dV.T
        )
        assert np.allclose(got, dense[e.rows, e.cols], atol=1e-12)
    # ranks 1 and 7, factors in any memory layout, empty rows, columns and pattern
    for r in (1, 7):
        base = random_point(9, 11, r, 50 + r)
        xi_base = random_horizontal(base, 51 + r)
        dense = (xi_base.dU @ base.R @ base.V.T + base.U @ xi_base.dR @ base.V.T
                 + base.U @ base.R @ xi_base.dV.T)
        for x, xi in laid_out(base, xi_base):
            for e in gather_patterns(9, 11, 7 * r + 1):
                got = direction_values(x, xi, e)
                assert got.shape == (e.count,)
                np.testing.assert_allclose(got, dense[e.rows, e.cols], rtol=0, atol=1e-12)


def test_initial_step_is_the_linearized_minimizer():
    for seed in range(20):
        x = random_point(9, 8, 2, seed)
        e = random_entries(9, 8, 40, seed + 40)
        p = CompletionProblem(e, 2)
        at_x = evaluate(p, x)
        grad = riemannian_gradient(p, at_x)
        xi = -grad
        s = initial_step(p, at_x, xi)
        ev = x.matrix()[e.rows, e.cols] - e.vals
        dv = direction_values(x, xi, e)
        want = -float(ev @ dv) / float(dv @ dv)
        assert s == pytest.approx(want, rel=1e-12)
        assert s > 0.0
        # the linearized objective is worse a bit to either side
        phi = lambda t: float(((ev + t * dv) ** 2).sum())
        assert phi(s) <= phi(0.9 * s) and phi(s) <= phi(1.1 * s)


def test_initial_step_error_paths():
    x = random_point(6, 6, 2, 1)
    e = random_entries(6, 6, 20, 2)
    p = CompletionProblem(e, 2)
    from r3mc import HorizontalVector

    ev = evaluate(p, x)
    zero = HorizontalVector(x, np.zeros((6, 2)), np.zeros((2, 2)), np.zeros((6, 2)))
    with pytest.raises(DegenerateDirectionError):
        initial_step(p, ev, zero)
    # the ascent direction's linearized minimizer is returned, negative
    ascent = riemannian_gradient(p, ev)
    s = initial_step(p, ev, ascent)
    d = direction_values(x, ascent, e)
    assert s < 0.0
    assert s == -float(ev.error @ d) / float(d @ d)
    with pytest.raises(TypeError):
        initial_step(p, ev, (np.zeros((6, 2)), np.zeros((2, 2)), np.zeros((6, 2))))


def test_initial_step_zero_residual_returns_zero():
    x = random_point(6, 6, 2, 3)
    rows, cols = sample_mask(6, 6, 20, 4)
    probe = ObservedEntries(6, 6, rows, cols, np.zeros(20))
    e = ObservedEntries(6, 6, probe.rows, probe.cols, masked_values(x, probe))
    p = CompletionProblem(e, 2)
    xi = random_horizontal(x, 5)
    assert initial_step(p, evaluate(p, x), xi) == 0.0


def test_operation_counter_tracks_sparse_work():
    x = random_point(10, 10, 4, 6)
    e = random_entries(10, 10, 30, 7)
    reset_op_count()
    masked_values(x, e)
    assert op_count() == 2 * 30 * 4
    s = SparseResidual(e, np.ones(30))
    sparse_apply(s, np.ones((10, 4)))
    assert op_count() == 2 * 30 * 4 + 2 * 30 * 4
    xi = random_horizontal(x, 8)
    before = op_count()
    direction_values(x, xi, e)
    assert op_count() - before == 4 * 30 * 4


def test_evaluation_holds_the_error_and_the_cost():
    x = random_point(8, 6, 2, 11)
    e = random_entries(8, 6, 25, 12)
    p = CompletionProblem(e, 2)
    ev = evaluate(p, x)
    assert isinstance(ev, PointEvaluation) and ev.point is x
    np.testing.assert_array_equal(ev.error, masked_values(x, e) - e.vals)
    assert ev.cost == cost(p, x)
    assert not ev.error.flags.writeable
    out = np.full(25, np.nan)
    assert cost(p, x, out=out) == ev.cost
    np.testing.assert_array_equal(out, ev.error)


def test_cg_solve_evaluates_each_trial_point_once(monkeypatch):
    # this run backtracks once, so one accepted point has two trials
    p, _ = synthesize(SyntheticSpec(30, 40, 3, 3.0), 0)
    counts = {"masked_values": 0, "trial_points": 0}
    masked, retract = problem_module.masked_values, solver_module.retract

    def counted_masked(*args, **kwargs):
        counts["masked_values"] += 1
        return masked(*args, **kwargs)

    def counted_retract(*args, **kwargs):
        y = retract(*args, **kwargs)
        counts["trial_points"] += 1
        return y

    monkeypatch.setattr(problem_module, "masked_values", counted_masked)
    monkeypatch.setattr(solver_module, "retract", counted_retract)
    _, trace = cg_solve(p, random_point(30, 40, 3, 50), SolverConfig(max_iterations=60))
    assert sum(row.backtracks for row in trace.rows) > 0
    assert counts["trial_points"] == trace.iterations + sum(r.backtracks for r in trace.rows)
    assert counts["masked_values"] == counts["trial_points"] + 1


# --- the row-side np.repeat kernels against the fancy-index loops they replace


def reference_gather_sum(left, right, rows, cols):
    vals = np.zeros(rows.size)
    for a, b in zip(np.ascontiguousarray(left), np.ascontiguousarray(right)):
        vals += a[rows] * b[cols]
    return vals


def reference_masked_values(x, entries):
    """``masked_values`` as a fancy-index gather on both sides, kept as the reference."""
    if x.n != entries.n or x.m != entries.m:
        raise DimensionError("point shape does not match the pattern grid")
    vals = reference_gather_sum((x.U @ x.R).T, x.V.T, entries.rows, entries.cols)
    problem_module.op_counter.add(2 * entries.count * x.r)
    return vals


def reference_direction_values(x, xi, entries):
    """``direction_values`` as a fancy-index gather, kept as the reference."""
    left = np.hstack([xi.dU @ x.R + x.U @ xi.dR, x.U @ x.R])
    right = np.hstack([x.V, xi.dV])
    vals = reference_gather_sum(left.T, right.T, entries.rows, entries.cols)
    problem_module.op_counter.add(4 * entries.count * x.r)
    return vals


def reference_sparse_apply(s, dense, transpose=False):
    """``sparse_apply`` with fancy-index gathers, kept as the reference."""
    pat = s.pattern
    dense = np.asarray(dense, dtype=np.float64)
    if transpose:
        out_idx, in_idx, size, in_size = pat.cols, pat.rows, pat.m, pat.n
    else:
        out_idx, in_idx, size, in_size = pat.rows, pat.cols, pat.n, pat.m
    if dense.shape[0] != in_size:
        raise DimensionError("dense operand must have %d rows" % in_size)
    columns = np.ascontiguousarray(dense.T)
    out = np.empty((dense.shape[1], size))
    for j, column in enumerate(columns):
        out[j] = np.bincount(out_idx, weights=s.vals * column[in_idx], minlength=size)
    problem_module.op_counter.add(2 * pat.count * dense.shape[1])
    return out.T


def reference_residual_products(problem, ev):
    """``residual_products`` as two fancy-index products with the scaled
    error, kept as the reference."""
    s = SparseResidual(problem.entries, ev.error * (2.0 / problem.entries.count))
    x = ev.point
    return reference_sparse_apply(s, x.V), reference_sparse_apply(s, x.U, transpose=True)


def reference_outer_values(a, b, entries):
    """``outer_values`` (the exact-scale direction of ``rank_one_update``)
    as a fancy-index gather, kept as the reference."""
    return a[entries.rows] * b[entries.cols]


REFERENCE_KERNELS = {
    "masked_values": reference_masked_values,
    "direction_values": reference_direction_values,
    "sparse_apply": reference_sparse_apply,
    "residual_products": reference_residual_products,
    "outer_values": reference_outer_values,
}


def assert_same_bits(got, want):
    """Equal shape, dtype and bytes: stricter than np.array_equal, which
    takes -0.0 for 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got, want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@st.composite
def kernel_patterns(draw, min_side=1):
    """Patterns on grids up to 13 x 13, 1 x m and n x 1 among them unless
    ``min_side`` rules them out: random cells (empty rows and columns
    included, and the empty pattern), all entries in one row, or power-law
    row degrees over shuffled rows.  Values mix normals with zeros of both
    signs and subnormals."""
    sides = st.tuples(st.integers(min_side, 13), st.integers(min_side, 13))
    if min_side == 1:
        sides = st.sampled_from([(1, 1), (1, 12), (12, 1)]) | sides
    n, m = draw(sides)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "one row", "power law"]))
    if kind == "uniform":
        cells = rng.choice(n * m, size=draw(st.integers(0, n * m)), replace=False)
    elif kind == "one row":
        cells = rng.integers(n) * m + rng.choice(m, size=rng.integers(1, m + 1), replace=False)
    else:
        degrees = rng.permutation((m / np.arange(1, n + 1) ** 1.5).astype(np.int64))
        cells = np.concatenate([i * m + rng.choice(m, size=d, replace=False)
                                for i, d in enumerate(degrees)])
    rows, cols = np.divmod(np.asarray(cells, dtype=np.int64), m)
    return ObservedEntries(n, m, rows, cols, special_values(rng, rows.size))


def special_values(rng, shape):
    """Standard normals with about a quarter replaced by 0.0, -0.0 or a subnormal."""
    vals = rng.standard_normal(shape)
    special = rng.random(shape) < 0.25
    vals[special] = rng.choice([0.0, -0.0, 5e-324, -2.5e-310], size=np.count_nonzero(special))
    return vals


def kernel_direction(x, seed):
    """random_horizontal(x, seed), where the tangent projection passes its
    check: the kernel tests need a direction, and the projection's loss of
    tangency at an ill-conditioned R is
    test_manifold's test_tangent_projection_holds_at_an_ill_conditioned_random_point."""
    try:
        return random_horizontal(x, seed)
    except ContractViolationError:
        assume(False)


# the kernel path a test is given holds for every example hypothesis draws
each_kernel_path = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


@each_kernel_path
@given(e=kernel_patterns(), rank=st.integers(1, 13), seed=st.integers(0, 2**20))
def test_gathers_match_the_fancy_index_loops_bit_for_bit(kernel_path, e, rank, seed):
    r = min(rank, e.n, e.m)
    x = random_point(e.n, e.m, r, seed)
    xi = kernel_direction(x, seed + 1)
    reset_op_count()
    got = masked_values(x, e), direction_values(x, xi, e)
    flops = op_count()
    reset_op_count()
    want = reference_masked_values(x, e), reference_direction_values(x, xi, e)
    assert op_count() == flops
    for g, w in zip(got, want):
        assert_same_bits(g, w)
    rng = np.random.default_rng(seed)
    a, b = special_values(rng, e.n), special_values(rng, e.m)
    assert_same_bits(problem_module.outer_values(a, b, e), reference_outer_values(a, b, e))


@each_kernel_path
@given(e=kernel_patterns(), rank=st.integers(2, 13), seed=st.integers(0, 2**20))
def test_sparse_apply_matches_the_fancy_index_loop_bit_for_bit(kernel_path, e, rank, seed):
    rng = np.random.default_rng(seed)
    s = SparseResidual(e, special_values(rng, e.count))
    for k in (1, rank):
        for transpose, size in ((False, e.m), (True, e.n)):
            dense = special_values(rng, (size, k))
            reset_op_count()
            got = sparse_apply(s, dense, transpose)
            flops = op_count()
            reset_op_count()
            want = reference_sparse_apply(s, dense, transpose)
            assert_same_bits(got, want)
            assert got.strides == want.strides  # the layout BLAS sees downstream
            assert op_count() == flops


def assert_same_products(problem, ev):
    """``residual_products`` at ev against the reference: bytes, strides
    and flop count."""
    reset_op_count()
    got = problem_module.residual_products(problem, ev)
    flops = op_count()
    reset_op_count()
    want = reference_residual_products(problem, ev)
    assert op_count() == flops
    for g, w in zip(got, want):
        assert_same_bits(g, w)
        assert g.strides == w.strides  # the layout BLAS sees downstream


@each_kernel_path
@given(e=kernel_patterns(), rank=st.integers(1, 13), seed=st.integers(0, 2**20))
def test_residual_products_match_the_fancy_index_loops_bit_for_bit(kernel_path, e, rank,
                                                                   seed):
    assume(e.count > 0)
    r = min(rank, e.n, e.m)
    x = random_point(e.n, e.m, r, seed)
    error = special_values(np.random.default_rng(seed), e.count)
    assert_same_products(CompletionProblem(e, r), PointEvaluation(x, error, 0.0))


@pytest.mark.parametrize("r", [1, 3, 13, 40])
def test_kernels_match_the_references_on_every_row_length_mod_four(kernel_path, r):
    # the gathers take four entries of a row at a time: rows of 0 to 9
    # entries give every remainder, and rows shorter than four
    n, m = 40, 48
    rng = np.random.default_rng(r)
    degrees = rng.permutation(np.arange(n) % 10)
    cells = np.concatenate([i * m + rng.choice(m, size=d, replace=False)
                            for i, d in enumerate(degrees)])
    rows, cols = np.divmod(cells, m)
    e = ObservedEntries(n, m, rows, cols, special_values(rng, rows.size))
    p = CompletionProblem(e, r)
    x = random_point(n, m, r, r + 1)
    xi = random_horizontal(x, r + 2)
    assert_same_bits(masked_values(x, e), reference_masked_values(x, e))
    assert_same_bits(direction_values(x, xi, e), reference_direction_values(x, xi, e))
    assert_same_products(p, evaluate(p, x))


@each_kernel_path
@given(e=kernel_patterns(), rank=st.integers(1, 13), seed=st.integers(0, 2**20))
def test_initial_step_is_the_signed_linearized_minimizer_bit_for_bit(kernel_path, e, rank,
                                                                    seed):
    # the step along xi and along -xi is the closed form whatever its
    # sign, so at most one of the two is positive
    assume(e.count > 0)
    r = min(rank, e.n, e.m)
    p = CompletionProblem(e, r)
    x = random_point(e.n, e.m, r, seed)
    ev = evaluate(p, x)
    xi = kernel_direction(x, seed + 1)
    steps = []
    for direction in (xi, -xi):
        d = reference_direction_values(x, direction, e)
        dd = float(d @ d)
        if dd == 0.0:
            with pytest.raises(DegenerateDirectionError):
                initial_step(p, ev, direction)
            continue
        s = initial_step(p, ev, direction)
        assert_same_bits(s, -float(ev.error @ d) / dd)
        steps.append(s)
    assert sum(s > 0.0 for s in steps) <= 1


def test_row_counts_are_lazy_and_read_only():
    # a pattern on a grid too tall for an n-array of counts builds and sorts
    tall = ObservedEntries(2**62, 2, [2**62 - 1, 0], [1, 0], [1.0, 2.0])
    wide = ObservedEntries(2, 2**62, [1, 0], [2**62 - 1, 0], [1.0, 2.0])
    for name in ("row_counts", "row_offsets", "col_offsets"):
        assert name not in vars(tall) and name not in vars(wide)
    e = ObservedEntries(4, 3, [3, 0, 3, 1], [0, 2, 2, 1], [1.0, 2.0, 3.0, 4.0])
    empty = ObservedEntries(3, 2, [], [], [])
    for name, want, none in (("row_counts", [1, 1, 0, 2], [0, 0, 0]),
                             ("row_offsets", [0, 1, 2, 2, 4], [0, 0, 0, 0]),
                             ("col_offsets", [0, 1, 2, 4], [0, 0, 0])):
        got = getattr(e, name)
        assert got.tolist() == want and got.dtype == np.int64
        assert got is getattr(e, name)
        with pytest.raises(ValueError):
            got[0] = 5
        assert getattr(empty, name).tolist() == none


@given(e=kernel_patterns(min_side=2), seed=st.integers(0, 2**20))
def test_rank_one_update_exact_scale_matches_the_fancy_index_direction(e, seed):
    assume(np.any(e.vals))
    r = min(e.n, e.m) - 1
    p = CompletionProblem(e, r)
    x = random_point(e.n, e.m, r, seed)
    outcomes = []
    for kernels in ({}, {"outer_values": reference_outer_values}):
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for name, kernel in kernels.items():
                mp.setattr(solver_module, name, kernel)
            try:
                y = solver_module.rank_one_update(p, x, seed, exact_scale=True)
            except (DegenerateDirectionError, SingularMatrixError) as exc:
                outcomes.append(repr(exc))
            else:
                outcomes.append(tuple(f.tobytes() for f in (y.U, y.R, y.V)))
    assert outcomes[0] == outcomes[1]


def kernel_calls():
    """Reference kernels that count their calls, by kernel name."""
    calls = dict.fromkeys(REFERENCE_KERNELS, 0)

    def counted(name, kernel):
        def call(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return call

    return calls, {name: counted(name, k) for name, k in REFERENCE_KERNELS.items()}


def run_both_ways(fn):
    """fn() as shipped and with the reference kernels patched into every
    r3mc namespace that holds a shipped kernel (as perfbench/tracer.py
    patches its wrappers), each with the flop count and the warnings it
    gave; the second result also carries the reference kernels' calls."""
    results = []
    for patched in (False, True):
        calls, kernels = kernel_calls()
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            if patched:
                for name, kernel in kernels.items():
                    shipped = getattr(problem_module, name)
                    for key, mod in list(sys.modules.items()):
                        if ((key == "r3mc" or key.startswith("r3mc."))
                                and mod.__dict__.get(name) is shipped):
                            mp.setattr(mod, name, kernel)
            reset_op_count()
            out = fn()
            results.append((out, op_count(), [str(w.message) for w in seen]))
    return results[0], results[1], calls


def trace_rows(trace):
    """A trace's rows with the wall-clock field cleared, its start cost and reason."""
    return ([dataclasses.replace(row, time_s=0.0) for row in trace.rows],
            trace.initial_cost, trace.reason)


def factor_bytes(x):
    return tuple(np.ascontiguousarray(f).tobytes() for f in (x.U, x.R, x.V))


@pytest.mark.parametrize("condition_number", [1.0, 100.0])
def test_cold_solve_is_byte_identical_to_the_reference_kernels(condition_number):
    p, _ = synthesize(SyntheticSpec(40, 50, 4, 3.0, condition_number=condition_number), 3)
    x0 = random_point(40, 50, 4, 4)

    def solve():
        x, trace = cg_solve(p, x0, SolverConfig(max_iterations=40))
        return factor_bytes(x), trace_rows(trace)

    shipped, reference, calls = run_both_ways(solve)
    assert shipped == reference
    assert calls["masked_values"] and calls["direction_values"] and calls["residual_products"]


def test_homotopy_with_validation_is_byte_identical_to_the_reference_kernels():
    from r3mc import rank_incremental_solve, split_train_val_test

    p, _ = synthesize(SyntheticSpec(36, 44, 3, 5.0, condition_number=10.0), 8)
    train, val, _ = split_train_val_test(p.entries, (0.8, 0.2, 0.0), 9)
    problem = CompletionProblem(train, 3)

    def homotopy():
        step, steps = rank_incremental_solve(problem, SolverConfig(max_iterations=30),
                                             seed=2, validation=val)
        return factor_bytes(step.point), [(s.rank, s.validation_mse, trace_rows(s.trace))
                                 for s in steps]

    shipped, reference, calls = run_both_ways(homotopy)
    assert shipped == reference
    assert len(shipped[0][1]) == 3
    assert calls["outer_values"] == 2 and calls["masked_values"] and calls["sparse_apply"]


def test_warm_start_is_byte_identical_to_the_reference_kernels():
    from r3mc import truncated_warm_start

    p, _ = synthesize(SyntheticSpec(30, 48, 3, 4.0), 12)

    def warm():
        return factor_bytes(truncated_warm_start(p, 16, SolverConfig(max_iterations=30), 5))

    shipped, reference, calls = run_both_ways(warm)
    assert shipped == reference
    assert calls["sparse_apply"] and calls["masked_values"]
