"""End-to-end behavioral gate for the whole package.

Each test pins one user-visible guarantee: gradient consistency,
geometry invariants, small-solver correctness, representation
invariance, step-size optimality, recovery on easy and ill-conditioned
instances, rank growth against held-out error, rank-one update
identities, warm-start savings, the ratings protocol, and bytewise
determinism.  Tolerances and budgets are asserted literally.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from _geometry import group_action, random_horizontal, rotate_vector, vertical_lift
from r3mc import (
    CompletionProblem,
    CounterRng,
    FixedRankPoint,
    ObservedEntries,
    SolverConfig,
    SparseResidual,
    SyntheticSpec,
    cg_solve,
    cost,
    evaluate,
    initial_step,
    masked_values,
    mean_squared_error,
    metric,
    norm,
    op_count,
    project_to_horizontal,
    project_to_tangent,
    random_point,
    rank_incremental_solve,
    rank_one_update,
    reset_op_count,
    residual,
    retract,
    riemannian_gradient,
    sample_mask,
    split_train_val_test,
    synth_conditioned,
    synthesize,
    truncated_oversampling,
    truncated_warm_start,
)
from r3mc.smallmat import (
    polar_orthonormal_factor,
    skew,
    solve_coupled_lyapunov,
    solve_lyapunov_spd,
    sym,
)
from r3mc.solver import _dominant_residual_pair


def benign_point(n, m, r, seed):
    """A point whose middle factor has a tightly bounded condition number,
    so metric solves contribute only machine-level rounding."""
    rng = CounterRng(seed)
    u = polar_orthonormal_factor(rng.standard_normal((n, r)))
    v = polar_orthonormal_factor(rng.standard_normal((m, r)))
    a = polar_orthonormal_factor(rng.standard_normal((r, r)))
    b = polar_orthonormal_factor(rng.standard_normal((r, r)))
    mid = a @ np.diag(np.linspace(0.8, 1.6, r)) @ b.T
    return FixedRankPoint(u, mid, v)


def gaussian_entries(n, m, count, seed):
    rng = CounterRng(seed)
    rows, cols = sample_mask(n, m, count, seed)
    return ObservedEntries(n, m, rows, cols, rng.standard_normal(count))


def exact_rank_entries(n, m, r, count, seed, heldout=0, noise=0.0):
    """Masked entries of an exact rank-r matrix, with an optional extra
    disjoint held-out block sampled from the same matrix."""
    x_true = random_point(n, m, r, seed)
    rows, cols = sample_mask(n, m, count + heldout, seed + 1)
    probe = ObservedEntries(n, m, rows, cols, np.zeros(count + heldout))
    vals = masked_values(x_true, probe)
    if noise:
        vals = vals + noise * CounterRng(seed + 2).standard_normal(vals.size)
    train = ObservedEntries(n, m, rows[:count], cols[:count], vals[:count])
    rest = ObservedEntries(n, m, rows[count:], cols[count:], vals[count:])
    return train, rest, x_true


def triple_gap(a, b):
    return (
        np.linalg.norm(a.dU - b.dU)
        + np.linalg.norm(a.dR - b.dR)
        + np.linalg.norm(a.dV - b.dV)
    )


def test_01_cost_slope_matches_the_gradient_along_horizontal_directions():
    t0 = time.perf_counter()
    shapes = [(15, 12, 3), (40, 25, 5)]
    h = 1e-6
    worst = 0.0
    for k in range(50):
        n, m, r = shapes[k % 2]
        # four observations per degree of freedom, capped below the full grid
        count = min(int(round(4 * r * (n + m - r))), int(round(0.9 * n * m)))
        entries = gaussian_entries(n, m, count, 100 + k)
        problem = CompletionProblem(entries, r)
        x = random_point(n, m, r, 200 + k)
        grad = riemannian_gradient(problem, evaluate(problem, x))
        for j in range(10):
            xi = random_horizontal(x, 1000 * k + j)
            slope = metric(x, grad, xi)
            fd = (cost(problem, retract(x, xi, h)) - cost(problem, retract(x, xi, -h))) / (2 * h)
            rel = abs(fd - slope) / max(abs(slope), 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-4
    assert time.perf_counter() - t0 < 10.0, "gradient consistency overran its budget"


def test_02_projections_idempotent_vertical_free_and_retraction_orthonormal():
    t0 = time.perf_counter()
    for t in range(500):
        r = 1 + t % 6
        n = 12 + t % 9
        m = 10 + (3 * t) % 11
        x = benign_point(n, m, r, t)
        rng = CounterRng(10_000 + t)
        ambient = (
            rng.standard_normal((n, r)),
            rng.standard_normal((r, r)),
            rng.standard_normal((m, r)),
        )
        scale = max(np.linalg.norm(np.concatenate([a.ravel() for a in ambient])), 1.0)
        ambient = tuple(a / scale for a in ambient)

        tangent = project_to_tangent(x, ambient)
        assert triple_gap(project_to_tangent(x, tangent), tangent) <= 1e-10
        horizontal = project_to_horizontal(x, tangent)
        assert triple_gap(project_to_horizontal(x, horizontal), horizontal) <= 1e-10

        hn = norm(x, horizontal)
        vrng = CounterRng(77_000 + t)
        o1 = vrng.standard_normal((100, r, r))
        o2 = vrng.standard_normal((100, r, r))
        o1 = 0.5 * (o1 - o1.transpose(0, 2, 1))
        o2 = 0.5 * (o2 - o2.transpose(0, 2, 1))
        # batched metric pairings against the lift definition itself
        lift_u = np.einsum("ns,kst->knt", x.U, o1)
        lift_r = np.einsum("rs,kst->krt", x.R, o2) - np.einsum("krs,st->krt", o1, x.R)
        lift_v = np.einsum("ms,kst->kmt", x.V, o2)
        w1 = x.R @ x.R.T
        w2 = x.R.T @ x.R
        pair = (
            np.einsum("knt,nt->k", lift_u, horizontal.dU @ w1)
            + np.einsum("krt,rt->k", lift_r, horizontal.dR)
            + np.einsum("kmt,mt->k", lift_v, horizontal.dV @ w2)
        )
        vns = np.sqrt(
            np.einsum("knt,knt->k", lift_u @ w1, lift_u)
            + np.einsum("krt,krt->k", lift_r, lift_r)
            + np.einsum("kmt,kmt->k", lift_v @ w2, lift_v)
        )
        live = vns > 0.0
        assert np.all(np.abs(pair[live]) / np.maximum(hn * vns[live], 1e-300) <= 1e-10)

        lift = vertical_lift(x, o1[0], o2[0])
        vn = norm(x, lift)
        if vn > 0.0:
            # the batched pairing agrees with the library metric on one sample
            assert metric(x, horizontal, lift) == pytest.approx(float(pair[0]), abs=1e-12 * max(hn * vn, 1.0))
            killed = project_to_horizontal(x, lift)
            assert norm(x, killed) <= 1e-10 * vn

        if hn > 0.0:
            y = retract(x, (1.0 / hn) * horizontal, 1.0)
            assert np.linalg.norm(y.U.T @ y.U - np.eye(r)) <= 1e-10
            assert np.linalg.norm(y.V.T @ y.V - np.eye(r)) <= 1e-10
    assert time.perf_counter() - t0 < 5.0, "geometry invariants overran their budget"


def kron_lyapunov(p, q):
    r = p.shape[0]
    eye = np.eye(r)
    k = np.kron(p, eye) + np.kron(eye, p)
    return np.linalg.solve(k, q.ravel()).reshape(r, r)


def kron_coupled(mid, c1, c2):
    r = mid.shape[0]
    eye = np.eye(r)
    w1 = mid @ mid.T
    w2 = mid.T @ mid
    k = np.block(
        [
            [np.kron(eye, w1) + np.kron(w1, eye), -np.kron(mid, mid)],
            [-np.kron(mid.T, mid.T), np.kron(eye, w2) + np.kron(w2, eye)],
        ]
    )
    sol = np.linalg.solve(k, np.concatenate([c1.ravel(), c2.ravel()]))
    return sol[: r * r].reshape(r, r), sol[r * r :].reshape(r, r)


def test_03_small_solvers_match_dense_kronecker_systems():
    t0 = time.perf_counter()
    for t in range(200):
        r = 1 + t % 4
        rng = CounterRng(3_000 + t)
        g = rng.standard_normal((r, r))
        p = g @ g.T + (0.4 * np.trace(g @ g.T) / r + 0.5) * np.eye(r)
        q = sym(rng.standard_normal((r, r)))
        got = solve_lyapunov_spd(p, q)
        want = kron_lyapunov(p, q)
        assert np.linalg.norm(got - want) <= 1e-9 * max(np.linalg.norm(want), 1e-12)
    for t in range(200):
        r = 1 + t % 4
        rng = CounterRng(4_000 + t)
        while True:
            mid = rng.standard_normal((r, r))
            sv = np.linalg.svd(mid, compute_uv=False)
            if sv[-1] > 1e-2 * sv[0]:
                break
        c1 = skew(rng.standard_normal((r, r)))
        c2 = skew(rng.standard_normal((r, r)))
        o1, o2 = solve_coupled_lyapunov(mid, c1, c2)
        w1, w2 = kron_coupled(mid, c1, c2)
        scale = max(np.linalg.norm(w1) + np.linalg.norm(w2), 1e-12)
        assert np.linalg.norm(o1 - w1) + np.linalg.norm(o2 - w2) <= 1e-9 * scale
    assert time.perf_counter() - t0 < 5.0, "solver oracles overran their budget"


def orthogonal_pair(r, seed):
    rng = CounterRng(seed)
    return (
        polar_orthonormal_factor(rng.standard_normal((r, r))),
        polar_orthonormal_factor(rng.standard_normal((r, r))),
    )


def test_04_refactored_representations_behave_identically():
    # cost and gradient ignore which representative of the equivalence
    # class they are handed
    for inst in range(4):
        n, m, r = 25, 30, 3
        entries = gaussian_entries(n, m, 400, 500 + inst)
        problem = CompletionProblem(entries, r)
        x = benign_point(n, m, r, 600 + inst)
        f = cost(problem, x)
        grad = riemannian_gradient(problem, evaluate(problem, x))
        for j in range(25):
            o1, o2 = orthogonal_pair(r, 700 + 25 * inst + j)
            y = group_action(x, o1, o2)
            assert abs(cost(problem, y) - f) <= 1e-10 * (1.0 + abs(f))
            grad_y = riemannian_gradient(problem, evaluate(problem, y))
            assert triple_gap(grad_y, rotate_vector(x, grad, o1, o2)) <= 1e-10

    # full solves started from two representatives of the same class end
    # at the same objective value
    config = SolverConfig(
        max_iterations=500, cost_tolerance=0.0, gradient_norm_tolerance=1e-6
    )
    for inst in range(10):
        train, _, _ = exact_rank_entries(40, 40, 3, 950, 800 + inst, noise=1e-3)
        problem = CompletionProblem(train, 3)
        x0 = random_point(40, 40, 3, 900 + inst)
        o1, o2 = orthogonal_pair(3, 1000 + inst)
        _, trace_a = cg_solve(problem, x0, config)
        _, trace_b = cg_solve(problem, group_action(x0, o1, o2), config)
        fa, fb = trace_a.final_cost, trace_b.final_cost
        assert abs(fa - fb) <= 1e-8 * max(fa, fb)


def golden_line_minimum(ev, dv):
    """Brute-force 1-D minimizer of the mean squared fit along a direction:
    coarse grid, then golden-section refinement.

    Comparison-based search cannot localize a minimum more finely than the
    value noise allows, so the refinement evaluates in extended precision.
    """
    ev_x = ev.astype(np.longdouble)
    dv_x = dv.astype(np.longdouble)
    lin = (ev_x @ dv_x) / ev_x.size
    quad = (dv_x @ dv_x) / ev_x.size

    def phi(s):
        return ((ev_x + np.longdouble(s) * dv_x) ** 2).mean()

    def left_is_lower(c, d):
        # phi(c) - phi(d) == (c - d) * (2*lin + quad*(c + d)), which avoids
        # the cancellation of evaluating two nearly equal positive sums
        return (c - d) * (2.0 * lin + quad * (c + d)) < 0.0

    hi = 1.0
    while phi(hi) <= phi(0.0):
        hi *= 2.0
    ss = np.linspace(0.0, hi, 2001)
    i = int(np.argmin([phi(s) for s in ss]))
    assert 0 < i < len(ss) - 1
    a = np.longdouble(ss[i - 1])
    b = np.longdouble(ss[i + 1])
    shrink = (np.sqrt(np.longdouble(5.0)) - 1.0) / 2.0
    while float(b - a) > 1e-12 * max(float(b), 1e-30):
        c = b - shrink * (b - a)
        d = a + shrink * (b - a)
        if left_is_lower(c, d):
            b = d
        else:
            a = c
    return float((a + b) / 2.0)


def test_05_first_step_equals_the_brute_force_line_minimum():
    done = 0
    seed = 0
    while done < 100:
        seed += 1
        r = 2 + seed % 3
        entries = gaussian_entries(30, 25, 500, 2000 + seed)
        problem = CompletionProblem(entries, r)
        x = random_point(30, 25, r, 3000 + seed)
        xi = random_horizontal(x, 4000 + seed)
        ev = x.matrix()[entries.rows, entries.cols] - entries.vals
        dense_dir = xi.dU @ x.R @ x.V.T + x.U @ xi.dR @ x.V.T + x.U @ x.R @ xi.dV.T
        dv = dense_dir[entries.rows, entries.cols]
        ed = float(ev @ dv)
        if ed == 0.0:
            continue
        if ed > 0.0:
            xi = -xi
            dv = -dv
        s_lib = initial_step(problem, evaluate(problem, x), xi)
        s_oracle = golden_line_minimum(ev, dv)
        assert abs(s_lib - s_oracle) <= 1e-8 * abs(s_oracle)
        done += 1


def test_06_exact_recovery_on_easy_instances():
    t0 = time.perf_counter()
    config = SolverConfig(max_iterations=300, cost_tolerance=1e-12)
    for seed in range(5):
        problem, _ = synthesize(SyntheticSpec(200, 200, 5, 4.0, condition_number=1.0), seed)
        x0 = random_point(200, 200, 5, 50 + seed)
        _, trace = cg_solve(problem, x0, config)
        assert trace.final_cost <= 1e-12, "seed %d stopped at %.3e" % (seed, trace.final_cost)
        assert trace.iterations <= 300
    assert time.perf_counter() - t0 < 30.0, "easy recovery overran its budget"


def test_07_recovery_with_a_decaying_spectrum():
    t0 = time.perf_counter()
    config = SolverConfig(max_iterations=500, cost_tolerance=1e-10)
    for seed in range(3):
        problem, _ = synthesize(
            SyntheticSpec(500, 500, 10, 3.0, condition_number=100.0), seed
        )
        x0 = random_point(500, 500, 10, 60 + seed)
        _, trace = cg_solve(problem, x0, config)
        assert trace.final_cost <= 1e-10, "seed %d stopped at %.3e" % (seed, trace.final_cost)
        assert trace.iterations <= 500
    assert time.perf_counter() - t0 < 120.0, "conditioned recovery overran its budget"


def test_08_rank_growth_lowers_heldout_error_until_the_true_rank():
    t0 = time.perf_counter()
    n = m = 300
    left, right = synth_conditioned(n, m, 8, 1e6, 7)
    dense = left @ right
    count = int(round(4.5 * 8 * (n + m - 8)))
    rows, cols = sample_mask(n, m, count + 5000, 8)
    pool = ObservedEntries(n, m, rows, cols, dense[rows, cols])
    # sample_mask output is ordered row-major, so slicing it would split
    # the grid spatially; the seeded splitter shuffles membership instead
    total = count + 5000
    train, heldout, _ = split_train_val_test(
        pool, (count / total, 5000 / total, 0.0), 11
    )
    problem = CompletionProblem(train, 10)
    config = SolverConfig(max_iterations=500)
    step, steps = rank_incremental_solve(problem, config, seed=9, validation=heldout)
    x = step.point

    mses = [s.validation_mse for s in steps]
    best = int(np.argmin(mses))
    # every accepted rank increment strictly improved the held-out error,
    # and at most the single rejected increment follows the best rank
    assert best >= 7, "rank growth stopped early: %r" % (mses,)
    assert all(mses[i + 1] < mses[i] for i in range(best)), "held-out error not strictly decreasing: %r" % (mses,)
    assert len(steps) - 1 - best <= 1
    assert cost(CompletionProblem(train, x.r), x) <= 1e-8
    assert time.perf_counter() - t0 < 120.0, "rank homotopy overran its budget"


def test_09_rank_one_update_reconstruction_and_dominant_triple():
    for seed in range(20):
        train, _, _ = exact_rank_entries(30, 35, 4, 976, 5000 + seed)
        problem = CompletionProblem(train, 2)
        x = random_point(30, 35, 2, 6000 + seed)
        ev = evaluate(problem, x)
        sigma, u, v = _dominant_residual_pair(residual(problem, ev), seed=seed)
        y = rank_one_update(problem, x, seed=seed)
        gap = np.linalg.norm(y.matrix() - (x.matrix() - sigma * np.outer(u, v)))
        assert gap <= 1e-10 * (np.linalg.norm(x.R) + sigma)

    rows, cols = np.divmod(np.arange(48), 6)
    pattern = ObservedEntries(8, 6, rows, cols, np.zeros(48))
    for seed in range(20):
        vals = CounterRng(7000 + seed).standard_normal(48)
        res = SparseResidual(pattern, vals)
        sigma, _, _ = _dominant_residual_pair(res, seed=seed)
        dense = np.zeros((8, 6))
        dense[rows, cols] = vals
        top = np.linalg.svd(dense, compute_uv=False)[0]
        assert sigma == pytest.approx(top, rel=1e-6)


def test_10_column_subset_warm_start_saves_sparse_work():
    spec = SyntheticSpec(100, 2000, 3, 5.0)
    config = SolverConfig(max_iterations=500, cost_tolerance=1e-10)
    cold_flops, warm_flops = [], []
    for seed in range(5):
        problem, _ = synthesize(spec, 8000 + seed)

        reset_op_count()
        x0 = random_point(100, 2000, 3, 8100 + seed)
        _, trace = cg_solve(problem, x0, config)
        assert trace.final_cost <= 1e-10
        cold_flops.append(op_count())

        reset_op_count()
        warm = truncated_warm_start(problem, 300, config, seed=8200 + seed)
        _, trace = cg_solve(problem, warm, config)
        assert trace.final_cost <= 1e-10
        warm_flops.append(op_count())

        assert truncated_oversampling(problem, 300) == problem.oversampling * 3.0 / 4.0
    assert float(np.median(warm_flops)) <= 0.75 * float(np.median(cold_flops)), (
        "median sparse flops: warm %r vs cold %r" % (warm_flops, cold_flops)
    )

    wide, _ = synthesize(SyntheticSpec(100, 400, 3, 5.0), 8900)
    assert truncated_oversampling(wide, 200) == 10.0 / 3.0


def _ratings_file():
    candidates = [os.environ.get("R3MC_ML1M_PATH")]
    candidates += [
        "/root/data/ml-1m/ratings.dat",
        str(Path.home() / "ml-1m" / "ratings.dat"),
        "ml-1m/ratings.dat",
        "ratings.dat",
    ]
    for c in candidates:
        if c and Path(c).is_file():
            return Path(c)
    return None


def test_11_ratings_protocol_reaches_the_reference_error():
    path = _ratings_file()
    if path is None:
        pytest.skip("MovieLens-1M ratings file not available")
    from r3mc import parse_movielens, split_train_val_test, to_entries
    from r3mc.solver import ValidationMonitor

    t0 = time.perf_counter()
    dataset = parse_movielens(path)
    entries = to_entries(dataset)
    train, val, test = split_train_val_test(entries, (0.8, 0.1, 0.1), 0)
    problem = CompletionProblem(train, 5)
    x0 = random_point(problem.n, problem.m, 5, 1)
    config = SolverConfig(max_iterations=1000)
    monitor = ValidationMonitor(val)
    x, trace = cg_solve(problem, x0, config, (monitor,))
    x, _ = monitor.best_point(x)
    assert mean_squared_error(x, test) <= 0.80
    assert time.perf_counter() - t0 < 600.0, "ratings protocol overran its budget"


def test_12_identical_seeded_runs_write_identical_bytes(tmp_path):
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"
    )

    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "r3mc.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    data_dir = tmp_path / "gen"
    cli("synth", "--n", "30", "--m", "30", "--rank", "2", "--os", "4",
        "--seed", "5", "--out", str(data_dir))
    outputs = []
    for name in ("first", "second"):
        run = tmp_path / name
        cli("complete", "--data", str(data_dir / "entries.mtx"), "--rank", "2",
            "--seed", "6", "--deterministic",
            "--trace", str(run / "trace.csv"), "--report", str(run / "report.json"),
            "--solution-prefix", str(run / "sol"))
        outputs.append(run)
    first, second = outputs
    for name in ("trace.csv", "report.json", "sol_U.mtx", "sol_R.mtx", "sol_V.mtx"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
