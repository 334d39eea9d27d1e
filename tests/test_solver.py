"""Conjugate gradient, rank homotopy, and warm start behavior."""

import warnings
from collections import deque
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _geometry import random_horizontal
from r3mc import (
    CompletionProblem,
    ConfigError,
    ContractViolationError,
    CounterRng,
    DegenerateDirectionError,
    DimensionError,
    FixedRankPoint,
    ObservedEntries,
    RankStep,
    RetractionError,
    SingularMatrixError,
    SolverConfig,
    SolverTrace,
    SparseResidual,
    SyntheticSpec,
    TraceRow,
    ValidationMonitor,
    cg_solve,
    cost,
    cost_plateau,
    early_stopped_solve,
    evaluate,
    initial_rank_one_point,
    masked_values,
    mean_squared_error,
    metric,
    norm,
    pr_plus_beta,
    random_point,
    rank_incremental_solve,
    rank_one_update,
    riemannian_gradient,
    synthesize,
    truncated_oversampling,
    truncated_warm_start,
)
from r3mc import manifold as manifold_module
from r3mc import problem as problem_module
from r3mc import solver as solver_module
from r3mc.data_io import sample_mask
from r3mc.solver import _dominant_residual_pair


def count_calls(monkeypatch, module, name):
    """Replace module.name with a wrapper counting its calls; returns the count list."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def fail_calls(monkeypatch, module, name, outcome, failing):
    """Make module.name raise ``outcome`` when it is an exception class, or
    else return it, on the calls numbered in ``failing`` (from one), and
    run as before on the others; returns the call list."""
    calls, original = [], getattr(module, name)

    def maybe_failing(*args, **kwargs):
        calls.append(args)
        if len(calls) in failing:
            if isinstance(outcome, type):
                raise outcome("forced failure")
            return outcome
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, maybe_failing)
    return calls


def non_increasing(trace):
    costs = [trace.initial_cost] + [row.cost for row in trace.rows]
    return all(b <= a for a, b in zip(costs, costs[1:]))


def make_problem(n, m, r, ratio, seed, noise=0.0, rank=None):
    """Observed entries of an exact rank-r matrix, optional gaussian noise."""
    x_true = random_point(n, m, r, seed)
    count = int(round(ratio * r * (n + m - r)))
    rows, cols = sample_mask(n, m, count, seed + 1)
    probe = ObservedEntries(n, m, rows, cols, np.zeros(count))
    vals = masked_values(x_true, probe)
    if noise:
        vals = vals + noise * CounterRng(seed + 2).standard_normal(count)
    entries = ObservedEntries(n, m, probe.rows, probe.cols, vals)
    return CompletionProblem(entries, r if rank is None else rank), x_true


def test_solver_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ConfigError):
        SolverConfig(cost_tolerance=-1.0)
    with pytest.raises(ConfigError):
        SolverConfig(gradient_norm_tolerance=-1e-3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            SolverConfig(cost_tolerance=bad)
        with pytest.raises(ConfigError):
            SolverConfig(gradient_norm_tolerance=bad)


def test_solver_config_holds_only_the_stop_rules():
    assert [f.name for f in fields(SolverConfig)] == [
        "max_iterations", "cost_tolerance", "gradient_norm_tolerance"]


def test_pr_plus_beta_identities():
    x = random_point(10, 8, 3, 0)
    g = random_horizontal(x, 1)
    h = random_horizontal(x, 2)
    gg = metric(x, g, g)
    # zero difference gives zero exactly
    assert pr_plus_beta(x, g, g, gg, gg) == 0.0
    # negative numerator clips to zero
    assert pr_plus_beta(x, g, 2.0 * g, gg, gg) == 0.0
    # a previous gradient orthogonal to the new one reduces to the ratio
    # of squared norms
    t = h - (metric(x, h, g) / gg) * g
    assert pr_plus_beta(x, g, t, gg, 2.5) == pytest.approx(gg / 2.5, rel=1e-12)
    with pytest.raises(ContractViolationError):
        pr_plus_beta(x, g, h, gg, 0.0)


@settings(max_examples=40)
@given(n=st.integers(4, 30), m=st.integers(4, 30), r=st.integers(1, 4),
       log_cond=st.floats(0.0, 4.0), seed=st.integers(0, 2**20))
def test_pr_plus_beta_numerator_needs_no_transport(n, m, r, log_cond, seed):
    # the transport is a pair of projections orthogonal in the metric at y,
    # and the new gradient is horizontal there, so its inner product with
    # the transported previous gradient is the one with its blocks as they
    # are, and beta matches the form that transports it, at cond(R) to 1e4
    r = min(r, n, m)
    p = random_point(n, m, r, seed)
    w, _, z = p.svd
    x = FixedRankPoint(p.U, w @ np.diag(np.logspace(0.0, -log_cond, r)) @ z.T, p.V)
    xi = random_horizontal(x, seed + 1)
    y = solver_module.retract(x, xi, 0.1 / norm(x, xi))
    g_old = random_horizontal(x, seed + 2)
    g_new = random_horizontal(y, seed + 3)
    carried = solver_module.transport_to(y, g_old)
    new_sq, prev_sq = metric(y, g_new, g_new), metric(x, g_old, g_old)
    tol = 1e-13 * np.sqrt(new_sq * metric(y, g_old, g_old))
    assert abs(metric(y, g_new, g_old) - metric(y, g_new, carried)) <= tol
    transported = max(0.0, metric(y, g_new, g_new - carried) / prev_sq)
    # the transported form also rounds its own subtraction, of order eps new_sq
    assert (abs(pr_plus_beta(y, g_new, g_old, new_sq, prev_sq) - transported)
            <= (tol + 1e-13 * new_sq) / prev_sq)


def test_cg_solve_guards_shapes():
    problem, _ = make_problem(20, 24, 2, 4.0, 0)
    with pytest.raises(DimensionError):
        cg_solve(problem, random_point(20, 24, 3, 1))
    with pytest.raises(DimensionError):
        cg_solve(problem, random_point(21, 24, 2, 1))


def test_cg_solve_converges_and_traces_are_coherent():
    problem, x_true = make_problem(60, 60, 3, 4.0, 3)
    x, trace = cg_solve(problem, random_point(60, 60, 3, 99))
    assert trace.converged
    assert trace.final_cost <= 1e-12
    assert trace.iterations <= 300
    costs = [row.cost for row in trace.rows]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    assert costs[0] <= trace.initial_cost
    assert [row.iteration for row in trace.rows] == list(range(1, len(costs) + 1))
    times = [row.time_s for row in trace.rows]
    assert all(b >= a for a, b in zip(times, times[1:]))
    assert all(row.step > 0 for row in trace.rows)
    # the optimum reproduces the generating matrix off-pattern too
    assert np.linalg.norm(x.matrix() - x_true.matrix()) <= 1e-5


def test_cg_solve_zero_cost_start_stops_immediately():
    problem, x_true = make_problem(20, 20, 2, 4.0, 5)
    x, trace = cg_solve(problem, x_true)
    assert trace.iterations == 0
    assert trace.reason == "cost_tolerance"
    assert trace.converged
    assert x is x_true


def test_cg_solve_gradient_stop_is_relative():
    problem, _ = make_problem(40, 40, 2, 4.0, 7, noise=1e-6)
    x0 = random_point(40, 40, 2, 8)
    g0 = riemannian_gradient(problem, evaluate(problem, x0))
    gn0 = np.sqrt(metric(x0, g0, g0))
    config = SolverConfig(cost_tolerance=0.0, gradient_norm_tolerance=1e-6)
    x, trace = cg_solve(problem, x0, config)
    assert trace.reason == "gradient_tolerance"
    assert trace.rows[-1].grad_norm <= 1e-6 * gn0


def test_cg_solve_monitor_stop():
    problem, _ = make_problem(30, 30, 2, 4.0, 9)
    x, trace = cg_solve(
        problem,
        random_point(30, 30, 2, 10),
        stops=(lambda trace, point: "third" if trace.iterations >= 3 else None,),
    )
    assert trace.iterations == 3
    assert trace.reason == "third"
    assert not trace.converged


def test_cg_solve_budget_exhaustion():
    problem, _ = make_problem(30, 30, 2, 4.0, 11)
    config = SolverConfig(max_iterations=3, cost_tolerance=0.0)
    x, trace = cg_solve(problem, random_point(30, 30, 2, 12), config)
    assert trace.iterations == 3
    assert trace.reason == "max_iterations"
    assert not trace.converged


def test_cg_solve_stalls_when_armijo_cannot_be_met(monkeypatch):
    problem, _ = make_problem(30, 30, 2, 4.0, 13)
    # a slope requirement this close to one rejects the exact linearized
    # step, and with no backtracks allowed every direction runs out
    monkeypatch.setattr(solver_module, "ARMIJO_SLOPE", 1.0 - 1e-9)
    monkeypatch.setattr(solver_module, "MAX_BACKTRACKS", 0)
    x, trace = cg_solve(problem, random_point(30, 30, 2, 14))
    assert trace.reason == "line_search_stall"
    assert not trace.converged


def test_cg_solve_backtracks_when_the_retraction_fails(monkeypatch):
    problem, _ = make_problem(30, 30, 2, 4.0, 19)
    x0 = random_point(30, 30, 2, 20)
    config = SolverConfig(max_iterations=5, cost_tolerance=0.0)
    _, plain = cg_solve(problem, x0, config)
    fail_calls(monkeypatch, solver_module, "retract", RetractionError, {1})
    _, trace = cg_solve(problem, x0, config)
    first, want = trace.rows[0], plain.rows[0]
    # the failed trial counts as one backtrack from the same initial step
    assert first.backtracks == max(1, want.backtracks)
    assert first.step == want.step * (0.5 if want.backtracks == 0 else 1.0)
    assert not first.reset
    assert (trace.reason, trace.iterations) == ("max_iterations", 5)
    assert non_increasing(trace)


@pytest.mark.parametrize("error, failing, outcome", [
    # a nonpositive linearized step marks a non-descent pairing, and an
    # infinite one an overflow
    (-1.0, {1}, "same step"),
    (np.inf, {1}, "same step"),
    (DegenerateDirectionError, {1}, "same step"),
    # on the reset direction a degenerate direction tries a unit step
    (DegenerateDirectionError, {1, 2}, "unit step"),
    # on the reset direction a non-descent pairing leaves nothing to try
    (-1.0, {1, 2}, "stall"),
    (np.inf, {1, 2}, "stall"),
])
def test_cg_solve_retries_from_steepest_descent_when_the_initial_step_fails(
        monkeypatch, error, failing, outcome):
    problem, _ = make_problem(30, 30, 2, 4.0, 21)
    x0 = random_point(30, 30, 2, 22)
    config = SolverConfig(max_iterations=5, cost_tolerance=0.0)
    _, plain = cg_solve(problem, x0, config)
    calls = fail_calls(monkeypatch, solver_module, "initial_step", error, failing)
    x, trace = cg_solve(problem, x0, config)
    # the first direction is already steepest descent, so the retry asks
    # for the step along the same direction
    assert all(np.array_equal(a, b)
               for a, b in zip(calls[0][2], calls[1][2]))
    assert non_increasing(trace)
    if outcome == "stall":
        assert (trace.reason, trace.iterations, len(calls)) == ("line_search_stall", 0, 2)
        assert x is x0
        return
    first = trace.rows[0]
    assert first.reset
    if outcome == "unit step":
        assert first.step == 0.5 ** first.backtracks
    else:
        assert (first.step, first.backtracks, first.cost) == (
            plain.rows[0].step, plain.rows[0].backtracks, plain.rows[0].cost)
    assert (trace.reason, trace.iterations) == ("max_iterations", 5)


# The oracle of the line search is the loop it replaced: the reset test,
# a nested steepest-descent retry and a separate Armijo backtracking.  It
# calls the solver module's functions by name, so a patch there reaches it.
def reference_armijo_search(problem, ev, eta, slope, s0):
    s = s0
    for k in range(solver_module.MAX_BACKTRACKS + 1):
        try:
            y = solver_module.retract(ev.point, eta, s)
        except RetractionError:
            s *= solver_module.BACKTRACK_FACTOR
            continue
        trial = solver_module.evaluate(problem, y)
        if trial.cost <= ev.cost + solver_module.ARMIJO_SLOPE * s * slope:
            return trial, s, k
        s *= solver_module.BACKTRACK_FACTOR
    return None


def reference_cg_solve(problem, x0, config=SolverConfig()):
    ev = solver_module.evaluate(problem, x0)
    x, f = x0, ev.cost
    trace = SolverTrace(initial_cost=f)
    grad = riemannian_gradient(problem, ev)
    grad_norm_sq = metric(x, grad, grad)
    grad_norm_0 = np.sqrt(grad_norm_sq)
    eta = -grad

    while True:
        if not (np.isfinite(f) and np.isfinite(grad_norm_sq)):
            trace.reason = "non_finite"
            break
        if f <= config.cost_tolerance:
            trace.reason = "cost_tolerance"
            break
        if np.sqrt(grad_norm_sq) <= config.gradient_norm_tolerance * grad_norm_0:
            trace.reason = "gradient_tolerance"
            break
        if trace.iterations >= config.max_iterations:
            trace.reason = "max_iterations"
            break

        slope = metric(x, grad, eta)
        reset = False
        if slope >= 0.0:
            eta, slope, reset = -grad, -grad_norm_sq, True

        accepted = None
        while True:
            try:
                s0 = solver_module.initial_step(problem, ev, eta)
            except DegenerateDirectionError:
                s0 = 1.0 if reset else None
            if s0 is not None and 0.0 < s0 < np.inf:
                accepted = reference_armijo_search(problem, ev, eta, slope, s0)
            if accepted is not None or reset:
                break
            eta, slope, reset = -grad, -grad_norm_sq, True
        if accepted is None:
            trace.reason = "line_search_stall"
            break

        ev, s, backtracks = accepted
        x_new = ev.point
        grad_new = riemannian_gradient(problem, ev)
        grad_norm_sq_new = metric(x_new, grad_new, grad_new)
        beta = max(0.0, (grad_norm_sq_new - metric(x_new, grad_new, grad)) / grad_norm_sq)
        eta = -grad_new + beta * solver_module.transport_to(x_new, eta)
        x, f, grad, grad_norm_sq = x_new, ev.cost, grad_new, grad_norm_sq_new
        trace.rows.append(TraceRow(trace.iterations + 1, f, float(np.sqrt(grad_norm_sq)),
                                   s, backtracks, reset, 0.0))
    return x, trace


def trace_bits(trace):
    """Every field of a trace but the clock, floats as their exact bits."""
    return (trace.initial_cost.hex(), trace.reason,
            [(r.iteration, r.cost.hex(), r.grad_norm.hex(), r.step.hex(), r.backtracks,
              r.reset) for r in trace.rows])


def assert_solves_like_the_reference(problem, x0, config, patch=lambda mp: None):
    """cg_solve and the reference, each under a fresh ``patch``, give the
    same point, the same trace bits and the same calls of the step
    functions; returns the trace."""
    outcomes = []
    for solve in (reference_cg_solve, cg_solve):
        with pytest.MonkeyPatch.context() as mp:
            patch(mp)
            calls = [count_calls(mp, solver_module, name)
                     for name in ("initial_step", "retract", "evaluate")]
            x, trace = solve(problem, x0, config)
        outcomes.append((x, trace, [len(c) for c in calls]))
    (x_ref, trace_ref, calls_ref), (x, trace, calls) = outcomes
    assert_same_point(x, x_ref)
    assert trace_bits(trace) == trace_bits(trace_ref)
    assert calls == calls_ref
    return trace


@pytest.mark.parametrize("n, m, r, ratio, seed, noise, iterations", [
    (30, 30, 2, 4.0, 21, 0.0, 60),
    (40, 25, 3, 3.0, 80, 1e-3, 80),
    (30, 200, 3, 3.0, 61, 0.1, 40),   # noise-dominated
    (20, 20, 2, 2.2, 81, 0.0, 100),   # scarce
])
def test_cg_solve_matches_the_reference_loop_on_seeded_problems(
        n, m, r, ratio, seed, noise, iterations):
    problem, _ = make_problem(n, m, r, ratio, seed, noise=noise)
    x0 = random_point(n, m, r, seed + 50)
    config = SolverConfig(max_iterations=iterations)
    trace = assert_solves_like_the_reference(problem, x0, config)
    assert trace.iterations > 0


def test_cg_solve_matches_the_reference_loop_on_an_ill_conditioned_problem():
    problem, _ = synthesize(SyntheticSpec(60, 60, 4, 3.0, condition_number=100.0), seed=5)
    config = SolverConfig(max_iterations=120)
    trace = assert_solves_like_the_reference(problem, random_point(60, 60, 4, 6), config)
    assert trace.iterations > 0


@pytest.mark.parametrize("name, error, failing, reason, resets", [
    # the CG direction of the second iteration fails; steepest descent stands in
    ("initial_step", -1.0, {2}, "max_iterations", [2]),
    ("initial_step", DegenerateDirectionError, {2}, "max_iterations", [2]),
    # degenerate steepest descent falls back to a unit step; later
    # iterations of that trajectory reset on the descent test
    ("initial_step", DegenerateDirectionError, {1, 2}, "max_iterations", [1]),
    ("initial_step", DegenerateDirectionError, {3, 4}, "max_iterations", [3, 5, 7, 8]),
    # a nonpositive step on both directions: a stall
    ("initial_step", -1.0, {1, 2}, "line_search_stall", []),
    ("initial_step", -1.0, {3, 4}, "line_search_stall", []),
    # failed retractions count as backtracks
    ("retract", RetractionError, {1, 2, 5}, "max_iterations", []),
])
def test_cg_solve_matches_the_reference_loop_on_forced_fallbacks(name, error, failing,
                                                                  reason, resets):
    problem, _ = make_problem(30, 30, 2, 4.0, 21)
    x0 = random_point(30, 30, 2, 22)
    config = SolverConfig(max_iterations=8, cost_tolerance=0.0)
    trace = assert_solves_like_the_reference(
        problem, x0, config, lambda mp: fail_calls(mp, solver_module, name, error, failing))
    assert trace.reason == reason
    assert [row.iteration for row in trace.rows if row.reset] == resets


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_cg_solve_matches_the_reference_loop_on_a_nonpositive_initial_step(bad):
    # a CG direction whose initial step is not positive and finite gives
    # no step; steepest descent stands in
    problem, _ = make_problem(30, 30, 2, 4.0, 21)
    config = SolverConfig(max_iterations=8, cost_tolerance=0.0)
    trace = assert_solves_like_the_reference(
        problem, random_point(30, 30, 2, 22), config,
        lambda mp: fail_calls(mp, solver_module, "initial_step", bad, {2}))
    assert [row.iteration for row in trace.rows if row.reset] == [2]


def test_cg_solve_matches_the_reference_loop_when_the_line_search_runs_out():
    problem, _ = make_problem(30, 30, 2, 4.0, 13)

    def strict(mp):
        mp.setattr(solver_module, "ARMIJO_SLOPE", 1.0 - 1e-9)
        mp.setattr(solver_module, "MAX_BACKTRACKS", 0)

    trace = assert_solves_like_the_reference(problem, random_point(30, 30, 2, 14),
                                             SolverConfig(), strict)
    assert trace.reason == "line_search_stall"


def test_cg_solve_scans_only_its_trial_points_and_transported_vectors(monkeypatch):
    # each trial point's U, R, V and each transport's ambient triple pass
    # the entry scan; the triples the solver computes from them do not
    problem, _ = make_problem(30, 30, 2, 4.0, 21)
    x0 = random_point(30, 30, 2, 71)
    scans = count_calls(monkeypatch, manifold_module, "_as_factor")
    _, trace = cg_solve(problem, x0, SolverConfig(max_iterations=40))
    trials = trace.iterations + sum(row.backtracks for row in trace.rows)
    assert len(scans) == 3 * trials + 3 * trace.iterations


def test_cg_solve_transports_only_the_direction(monkeypatch):
    # one transport per accepted iteration, of the previous direction: the
    # PR+ numerator reads the previous gradient untransported
    problem, _ = make_problem(30, 30, 2, 4.0, 21)
    calls = count_calls(monkeypatch, solver_module, "transport_to")
    _, trace = cg_solve(problem, random_point(30, 30, 2, 71), SolverConfig(max_iterations=40))
    assert trace.iterations == 40
    assert len(calls) == trace.iterations


def scaled_problem(scale, rank=2, seed=1):
    """The values of a 20 x 15 rank-2 matrix multiplied by ``scale``, posed
    at ``rank``."""
    problem, _ = make_problem(20, 15, 2, 3.0, seed)
    e = problem.entries
    return CompletionProblem(ObservedEntries(e.n, e.m, e.rows, e.cols, e.vals * scale),
                             rank)


def test_cg_solve_ends_non_finite_when_the_gradient_overflows():
    # the squared error of these values is finite below 8.4e153, but the
    # solution's sigma(R)^2 overflows from 7.0e153, so on the way to it the
    # gradient's squared norm tr(R RT dUT dU) + ... overflows
    problem = scaled_problem(8e153)
    x0 = random_point(20, 15, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        x, trace = cg_solve(problem, x0)
    assert trace.reason == "non_finite"
    assert not trace.converged
    assert np.isfinite(trace.final_cost) and trace.final_cost <= trace.initial_cost
    assert not np.isfinite(trace.rows[-1].grad_norm)


def test_cg_solve_calls_no_eigensolve_and_no_linear_solve(monkeypatch):
    # the metric's solves are entrywise divisions in R's singular bases
    problem, _ = make_problem(30, 30, 3, 4.0, 21)
    calls = [count_calls(monkeypatch, np.linalg, name) for name in ("eigh", "solve")]
    _, trace = cg_solve(problem, random_point(30, 30, 3, 22), SolverConfig(max_iterations=40))
    assert trace.iterations > 0
    assert calls == [[], []]


def test_cg_solve_ends_non_finite_on_an_overflowed_start():
    problem = scaled_problem(1e160)
    x0 = random_point(20, 15, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        x, trace = cg_solve(problem, x0)
    assert (trace.reason, trace.iterations, trace.initial_cost) == ("non_finite", 0, np.inf)
    assert x is x0


def test_cg_solve_tests_the_gradient_norm_for_overflow_before_its_size(monkeypatch):
    # an infinite starting norm would pass any gradient under the relative stop
    problem, _ = make_problem(30, 30, 2, 4.0, 21)
    fail_calls(monkeypatch, solver_module, "metric", np.inf, {1})
    x, trace = cg_solve(problem, random_point(30, 30, 2, 22))
    assert (trace.reason, trace.iterations) == ("non_finite", 0)


def test_rank_incremental_solve_grows_no_further_after_an_overflow():
    # the first rank's squared error overflows at its start
    problem = scaled_problem(1e154, rank=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        best, steps = rank_incremental_solve(problem, seed=1)
    assert [s.rank for s in steps] == [1]
    assert best is steps[0] and best.trace.reason == "non_finite"


@settings(max_examples=40)
@given(k=st.integers(0, 153), seed=st.integers(0, 2**20))
def test_cg_solve_ends_by_a_named_reason_on_finite_data_of_any_scale(k, seed):
    # the squared error of values below 1e154 is finite; an overflow
    # further on ends the solve, it raises nothing
    problem = scaled_problem(10.0 ** k, seed=seed % 50)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, trace = cg_solve(problem, random_point(20, 15, 2, seed),
                            SolverConfig(max_iterations=30))
    assert trace.reason in ("cost_tolerance", "gradient_tolerance", "max_iterations",
                            "line_search_stall", "non_finite")


def test_solves_write_nothing_to_stdout_or_stderr(capsys):
    problem, _ = make_problem(20, 20, 2, 4.0, 15)
    config = SolverConfig(max_iterations=20, cost_tolerance=0.0)
    _, trace = cg_solve(problem, random_point(20, 20, 2, 16), config)
    _, steps = rank_incremental_solve(problem_at_rank(problem, 3), config)
    assert trace.iterations > 0 and sum(s.trace.iterations for s in steps) > 0
    assert capsys.readouterr() == ("", "")


def test_cg_solve_is_deterministic():
    problem, _ = make_problem(30, 30, 2, 4.0, 17)
    x0 = random_point(30, 30, 2, 18)
    _, t1 = cg_solve(problem, x0)
    _, t2 = cg_solve(problem, x0)
    assert [r.cost for r in t1.rows] == [r.cost for r in t2.rows]
    assert [r.step for r in t1.rows] == [r.step for r in t2.rows]


def test_dominant_residual_pair_matches_dense_svd():
    rng = CounterRng(19)
    rows, cols = np.divmod(np.arange(48), 6)
    vals = rng.standard_normal(48)
    pattern = ObservedEntries(8, 6, rows, cols, np.zeros(48))
    res = SparseResidual(pattern, vals)
    sigma, u, v = _dominant_residual_pair(res, seed=0)
    dense = np.zeros((8, 6))
    dense[rows, cols] = vals
    w, s, zt = np.linalg.svd(dense)
    assert sigma == pytest.approx(s[0], rel=1e-6)
    assert np.linalg.norm(sigma * np.outer(u, v) - s[0] * np.outer(w[:, 0], zt[0])) <= 1e-3 * s[0]
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_dominant_residual_pair_reseeds_a_start_the_residual_cannot_see(monkeypatch):
    # columns 5 and 6 carry no observation, so a start supported on them
    # gives S v = 0 and the iteration must draw a new start
    rows, cols = np.divmod(np.arange(25), 5)
    vals = CounterRng(23).standard_normal(25)
    res = SparseResidual(ObservedEntries(5, 7, rows, cols, np.zeros(25)), vals)
    draws = []

    class FirstDrawOffPattern(CounterRng):
        def standard_normal(self, shape):
            draws.append(shape)
            if len(draws) == 1:
                v = np.zeros(shape)
                v[5:] = 1.0
                return v
            return super().standard_normal(shape)

    monkeypatch.setattr(solver_module, "CounterRng", FirstDrawOffPattern)
    sigma, u, v = _dominant_residual_pair(res, seed=0)
    assert draws == [(7, 1), (7, 1)]
    dense = np.zeros((5, 7))
    dense[rows, cols] = vals
    w, s, zt = np.linalg.svd(dense)
    assert sigma == pytest.approx(s[0], rel=1e-6)
    assert np.linalg.norm(sigma * np.outer(u, v) - s[0] * np.outer(w[:, 0], zt[0])) <= 1e-3 * s[0]


@settings(max_examples=40)
@given(k=st.integers(-1000, 1000), seed=st.integers(0, 2**20))
def test_dominant_residual_pair_scales_by_powers_of_two_exactly(k, seed):
    # the iteration runs on the values over a power of two, so a power of
    # two on them moves sigma alone, at any exponent the values can hold
    rows, cols = np.divmod(np.arange(48), 6)
    vals = CounterRng(seed).standard_normal(48)
    pattern = ObservedEntries(8, 6, rows, cols, np.zeros(48))
    sigma, u, v = _dominant_residual_pair(SparseResidual(pattern, vals), seed)
    sigma_k, u_k, v_k = _dominant_residual_pair(SparseResidual(pattern, np.ldexp(vals, k)),
                                                seed)
    assert sigma_k == np.ldexp(sigma, k)
    assert (u_k.tobytes(), v_k.tobytes()) == (u.tobytes(), v.tobytes())


def test_dominant_residual_pair_rejects_zero_residual():
    pattern = ObservedEntries(4, 4, [0, 1], [1, 2], [0.0, 0.0])
    with pytest.raises(DegenerateDirectionError):
        _dominant_residual_pair(SparseResidual(pattern, np.zeros(2)), seed=0)


def test_initial_rank_one_point_is_minus_the_dominant_triple():
    rng = CounterRng(20)
    rows, cols = np.divmod(np.arange(35), 7)
    vals = rng.standard_normal(35)
    problem = CompletionProblem(ObservedEntries(5, 7, rows, cols, vals), 1)
    x = initial_rank_one_point(problem, seed=0)
    dense = np.zeros((5, 7))
    dense[rows, cols] = -2.0 * vals / 35.0
    w, s, zt = np.linalg.svd(dense)
    want = -s[0] * np.outer(w[:, 0], zt[0])
    assert np.linalg.norm(x.matrix() - want) <= 1e-3 * s[0]


def test_rank_one_update_reconstruction_identity():
    for seed in range(5):
        problem, _ = make_problem(30, 35, 4, 4.0, 30 + seed, noise=0.5, rank=2)
        x = random_point(30, 35, 2, 60 + seed)
        sigma, u, v = _dominant_residual_pair(residual_of(problem, x), seed=seed)
        y = rank_one_update(problem, x, seed=seed)
        want = x.matrix() - sigma * np.outer(u, v)
        tol = 1e-10 * (np.linalg.norm(x.R) + sigma)
        assert np.linalg.norm(y.matrix() - want) <= tol
        assert y.r == 3


def residual_of(problem, x):
    from r3mc import residual

    return residual(problem, evaluate(problem, x))


def test_rank_one_update_rejects_full_rank():
    problem, x_true = make_problem(12, 16, 3, 2.0, 40)
    x = random_point(12, 16, 12, 41)
    with pytest.raises(ConfigError):
        rank_one_update(CompletionProblem(problem.entries, 12), x)


def test_rank_one_update_perturbs_spanned_directions_with_warning():
    # residual that is exactly rank one along the current left factor
    x = random_point(6, 9, 2, 42)
    rows, cols = np.divmod(np.arange(54), 9)
    w = CounterRng(43).standard_normal(9)
    data = x.matrix() + np.outer(x.U[:, 0], w)
    entries = ObservedEntries(6, 9, rows, cols, data[rows, cols])
    problem = CompletionProblem(entries, 2)
    with pytest.warns(RuntimeWarning, match="factor span"):
        y = rank_one_update(problem, x, seed=1)
    # the update still subtracts a rank-one piece of magnitude sigma, but
    # along a direction leaving the old column space
    sigma, u, v = _dominant_residual_pair(residual_of(problem, x), seed=1)
    diff = y.matrix() - x.matrix()
    left, s, right_t = np.linalg.svd(diff)
    assert s[0] == pytest.approx(sigma, rel=1e-8)
    assert s[1] <= 1e-10 * sigma
    assert abs(right_t[0] @ v) == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.norm(x.U.T @ left[:, 0]) <= 1e-8


def test_rank_one_update_perturbs_a_spanned_right_direction_too():
    # the transposed case: the residual is exactly rank one along the
    # current right factor, so the V side takes the random complement
    x = random_point(9, 6, 2, 42)
    rows, cols = np.divmod(np.arange(54), 6)
    w = CounterRng(43).standard_normal(9)
    data = x.matrix() + np.outer(w, x.V[:, 0])
    entries = ObservedEntries(9, 6, rows, cols, data[rows, cols])
    problem = CompletionProblem(entries, 2)
    with pytest.warns(RuntimeWarning, match="factor span"):
        y = rank_one_update(problem, x, seed=1)
    sigma, u, v = _dominant_residual_pair(residual_of(problem, x), seed=1)
    diff = y.matrix() - x.matrix()
    left, s, right_t = np.linalg.svd(diff)
    assert s[0] == pytest.approx(sigma, rel=1e-8)
    assert s[1] <= 1e-10 * sigma
    assert abs(left[:, 0] @ u) == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.norm(x.V.T @ right_t[0]) <= 1e-8


def test_rank_one_update_exact_scale_never_raises_cost():
    for seed in range(5):
        problem, _ = make_problem(30, 30, 3, 4.0, 70 + seed, rank=2)
        x, _ = cg_solve(problem_at_rank(problem, 2), random_point(30, 30, 2, seed))
        prob3 = problem_at_rank(problem, 3)
        plain = rank_one_update(prob3, x, seed=seed)
        exact = rank_one_update(prob3, x, seed=seed, exact_scale=True)
        assert cost(prob3, exact) <= cost(prob3, x) + 1e-15
        assert cost(prob3, exact) <= cost(prob3, plain) + 1e-15


def test_rank_one_update_evaluates_the_model_once(monkeypatch):
    problem, _ = make_problem(30, 30, 3, 4.0, 75, rank=2)
    x, _ = cg_solve(problem, random_point(30, 30, 2, 1))
    calls = count_calls(monkeypatch, problem_module, "masked_values")
    rank_one_update(problem_at_rank(problem, 3), x, seed=2, exact_scale=True)
    assert len(calls) == 1


def problem_at_rank(problem, r):
    return CompletionProblem(problem.entries, r)


def test_rank_incremental_solve_guards():
    problem, _ = make_problem(20, 24, 2, 4.0, 50)
    empty = ObservedEntries(20, 24, [], [], [])
    with pytest.raises(ConfigError, match="empty"):
        rank_incremental_solve(problem, validation=empty)
    wrong_grid = ObservedEntries(19, 24, [0], [0], [1.0])
    with pytest.raises(ConfigError, match="grid"):
        rank_incremental_solve(problem, validation=wrong_grid)
    e = problem.entries
    overlap = ObservedEntries(20, 24, e.rows[:1], e.cols[:1], e.vals[:1])
    with pytest.raises(ConfigError, match="overlap"):
        rank_incremental_solve(problem, validation=overlap)


def test_check_held_out_finds_a_shared_cell_wherever_it_sits():
    # oracle: set intersection; a shared cell may come before, between or
    # after the training cells, and an empty training pattern shares none
    gen = np.random.default_rng(67)
    for _ in range(300):
        train_cells, part_cells = (gen.choice(20, gen.integers(lo, 21), replace=False)
                                   for lo in (0, 1))
        train, part = (ObservedEntries(4, 5, c // 5, c % 5, np.ones(c.size))
                       for c in (train_cells, part_cells))
        if set(train_cells) & set(part_cells):
            with pytest.raises(ConfigError, match="^part pattern overlaps the training"):
                solver_module.check_held_out("part", part, train)
        else:
            solver_module.check_held_out("part", part, train)


def test_rank_incremental_solve_stops_at_the_true_rank():
    problem, x_true = make_problem(60, 60, 4, 5.0, 51)
    config = SolverConfig(cost_tolerance=1e-16)
    step, steps = rank_incremental_solve(problem_at_rank(problem, 8), config)
    assert [s.rank for s in steps] == [1, 2, 3, 4]
    assert step.point.r == 4
    assert steps[-1].trace.final_cost <= 1e-10
    assert all(s.validation_mse is None for s in steps)
    # each added rank improves the fit
    finals = [s.trace.final_cost for s in steps]
    assert all(b < a for a, b in zip(finals, finals[1:]))


def test_rank_incremental_solve_completes_scarce_ill_conditioned_data_a_cold_start_does_not():
    # oversampling 3 and cond 100: from a random start, 150 iterations leave
    # the cost near 1e-5 of the data's mean square; the homotopy, each rank
    # under the same budget, reaches 1e-8 of it
    problem, _ = synthesize(SyntheticSpec(1000, 1000, 10, 3.0, condition_number=100.0), 1)
    mean_square = float(problem.entries.vals @ problem.entries.vals) / problem.entries.count
    _, cold = cg_solve(problem, random_point(1000, 1000, 10, 8),
                       SolverConfig(max_iterations=150))
    assert cold.reason == "max_iterations"
    assert cold.final_cost > 1e-6 * mean_square
    config = SolverConfig(max_iterations=150, cost_tolerance=1e-8 * mean_square)
    best, steps = rank_incremental_solve(problem, config)
    assert (best.rank, best.trace.reason) == (10, "cost_tolerance")
    assert best.trace.final_cost <= 1e-8 * mean_square
    assert sum(s.trace.iterations for s in steps) <= 300


def test_rank_incremental_solve_single_rank_schedule():
    problem, _ = make_problem(30, 30, 2, 4.0, 52)
    step, steps = rank_incremental_solve(problem_at_rank(problem, 1))
    assert len(steps) == 1 and steps[0].rank == 1
    assert step.point.r == 1


def test_rank_incremental_solve_reraises_a_singular_first_rank(monkeypatch):
    problem, _ = make_problem(30, 30, 2, 4.0, 54)
    fail_calls(monkeypatch, solver_module, "early_stopped_solve", SingularMatrixError, {1})
    with pytest.raises(SingularMatrixError, match="forced failure"):
        rank_incremental_solve(problem_at_rank(problem, 3))


def test_rank_incremental_solve_stops_where_the_grown_direction_is_below_rounding():
    # past the exact rank the grown R's smallest singular value sits below
    # sqrt(r eps) of its largest; the gradient there refuses the point
    problem, _ = make_problem(30, 30, 2, 4.0, 54, rank=4)
    config = SolverConfig(max_iterations=300, cost_tolerance=0.0, gradient_norm_tolerance=0.0)
    step, steps = rank_incremental_solve(problem, config, seed=1)
    assert [s.rank for s in steps] == [1, 2] and step is steps[-1]
    x = FixedRankPoint(np.eye(30, 2), np.diag([1.0, 1e-9]), np.eye(30, 2))
    at_two = problem_at_rank(problem, 2)
    with pytest.raises(SingularMatrixError):
        riemannian_gradient(at_two, evaluate(at_two, x))


@pytest.mark.parametrize("name, error, failing", [
    ("rank_one_update", DegenerateDirectionError, {1}),
    ("rank_one_update", SingularMatrixError, {1}),
    ("early_stopped_solve", SingularMatrixError, {2}),
])
def test_rank_incremental_solve_returns_the_last_solved_rank_when_growing_fails(
        monkeypatch, name, error, failing):
    problem, _ = make_problem(30, 30, 2, 4.0, 55)
    want, want_steps = rank_incremental_solve(problem_at_rank(problem, 1))
    calls = fail_calls(monkeypatch, solver_module, name, error, failing)
    step, steps = rank_incremental_solve(problem_at_rank(problem, 3))
    assert len(calls) == max(failing)
    assert [s.rank for s in steps] == [1] and step.point.r == 1
    assert_same_point(step.point, want.point)
    assert trace_rows(steps[0].trace) == trace_rows(want_steps[0].trace)
    assert steps[0].trace.reason == want_steps[0].trace.reason
    assert non_increasing(steps[0].trace)


def test_rank_incremental_solve_returns_best_validation_point():
    x_true = random_point(50, 50, 3, 53)
    count = int(round(5.0 * 3 * 97))
    rows, cols = sample_mask(50, 50, count + 200, 54)
    probe = ObservedEntries(50, 50, rows, cols, np.zeros(count + 200))
    vals = masked_values(x_true, probe) + 1e-3 * CounterRng(55).standard_normal(count + 200)
    train = ObservedEntries(50, 50, rows[:count], cols[:count], vals[:count])
    val = ObservedEntries(50, 50, rows[count:], cols[count:], vals[count:])
    step, steps = rank_incremental_solve(CompletionProblem(train, 6), validation=val)
    mses = [s.validation_mse for s in steps]
    assert all(v is not None for v in mses)
    assert mean_squared_error(step.point, val) == pytest.approx(min(mses), rel=1e-12)


def test_validation_monitor_reuses_the_score_of_its_last_iterate(monkeypatch):
    problem, _ = make_problem(30, 30, 2, 4.0, 57)
    val, _ = make_problem(30, 30, 2, 0.5, 58)  # any pattern on the grid will do
    monitor = ValidationMonitor(val.entries)
    x, trace = cg_solve(problem, random_point(30, 30, 2, 3), SolverConfig(max_iterations=8),
                        (monitor,))
    assert trace.iterations >= 1
    calls = count_calls(monkeypatch, solver_module, "mean_squared_error")
    best, v = monitor.best_point(x)
    assert calls == []
    assert v == min(monitor.best, mean_squared_error(x, val.entries))
    other = random_point(30, 30, 2, 4)
    monitor.best_point(other)
    assert len(calls) == 1


def train_and_validation(n, m, r, train_count, val_count, seed, noise):
    """Disjoint training and validation entries of one noisy rank-r matrix."""
    x_true = random_point(n, m, r, seed)
    total = train_count + val_count
    rows, cols = sample_mask(n, m, total, seed + 1)
    probe = ObservedEntries(n, m, rows, cols, np.zeros(total))
    vals = masked_values(x_true, probe) + noise * CounterRng(seed + 2).standard_normal(total)
    return (ObservedEntries(n, m, rows[:train_count], cols[:train_count], vals[:train_count]),
            ObservedEntries(n, m, rows[train_count:], cols[train_count:], vals[train_count:]))


# The oracle of the stop rules is the protocol they replaced: one callback
# ``monitor(iteration, point, cost) -> bool`` per solve, whose True ended the
# solve as "monitor_stop", whichever rule inside it fired.
MONITOR_STOP = "monitor_stop"


def monitored_solve(problem, x0, config, monitor=None):
    """``cg_solve`` under the monitor protocol, through a stop-rule adapter."""
    if monitor is None:
        return cg_solve(problem, x0, config)

    def rule(trace, x):
        return MONITOR_STOP if monitor(trace.iterations, x, trace.final_cost) else None

    return cg_solve(problem, x0, config, (rule,))


class MonitorProtocolValidation:
    """``ValidationMonitor`` as the monitor protocol wrote it."""

    def __init__(self, validation):
        self.validation = validation
        self.best, self.best_x, self.prev, self.rises = np.inf, None, np.inf, 0
        self.last_x = None

    def __call__(self, iteration, x, f):
        v = mean_squared_error(x, self.validation)
        if v < self.best:
            self.best, self.best_x = v, x
        self.rises = self.rises + 1 if v > self.prev else 0
        self.prev, self.last_x = v, x
        return self.rises >= solver_module.VALIDATION_WINDOW

    def best_point(self, x):
        v = self.prev if x is self.last_x else mean_squared_error(x, self.validation)
        return (self.best_x, self.best) if self.best < v else (x, v)

    def fired(self):
        """The rule a "monitor_stop" names: validation when its window is
        full (it is asked first), else the cost plateau."""
        return "validation_rise" if self.rises >= solver_module.VALIDATION_WINDOW \
            else "cost_plateau"


def monitor_protocol_plateau():
    """``cost_plateau`` as the monitor protocol wrote it, over its own deque."""
    recent = deque(maxlen=solver_module.PLATEAU_WINDOW + 1)

    def monitor(iteration, x, f):
        recent.append(f)
        return len(recent) == recent.maxlen and (
            recent[0] - f <= solver_module.PLATEAU_TOL * max(recent[0], 1e-300))

    return monitor


def monitor_protocol_early_stopped_solve(problem, x0, config, validation=None,
                                         monitor=None):
    """Oracle: ``early_stopped_solve`` composed under the monitor protocol.
    Returns (point, trace, validation MSE, the rule a "monitor_stop" names)."""
    if validation is None:
        x, trace = monitored_solve(problem, x0, config, monitor)
        return x, trace, None, "cost_plateau"
    tracker = MonitorProtocolValidation(validation)

    def stop(iteration, x, f):
        return tracker(iteration, x, f) or (
            monitor is not None and monitor(iteration, x, f))

    x, trace = monitored_solve(problem, x0, config, stop)
    x, val_mse = tracker.best_point(x)
    return x, trace, val_mse, tracker.fired()


def hand_written_homotopy(problem, max_rank, validation=None, config=SolverConfig(),
                          seed=0):
    """Oracle: the homotopy with its own per-rank monitor and best-point
    bookkeeping, as it was written before ``early_stopped_solve``.  Its
    steps are (rank, trace, validation MSE, the rule a "monitor_stop" names)."""

    def rank_monitor(validation):
        recent = deque(maxlen=solver_module.PLATEAU_WINDOW + 1)

        def monitor(iteration, x, f):
            if validation is not None and validation(iteration, x, f):
                return True
            recent.append(f)
            if len(recent) == recent.maxlen:
                old = recent[0]
                if old - f <= solver_module.PLATEAU_TOL * max(old, 1e-300):
                    return True
            return False

        return monitor

    x = start = initial_rank_one_point(problem, seed)
    steps = []
    best_x, best_val, prev_val = x, np.inf, np.inf
    for r in range(1, max_rank + 1):
        prob_r = CompletionProblem(problem.entries, r)
        tracker = None if validation is None else MonitorProtocolValidation(validation)
        solved, trace = monitored_solve(prob_r, start, config, rank_monitor(tracker))
        val, fired = None, "cost_plateau"
        if tracker is not None:
            solved, val = tracker.best_point(solved)
            fired = tracker.fired()
        steps.append((r, trace, val, fired))
        x = solved
        if val is not None:
            if val < best_val:
                best_x, best_val = solved, val
            if val > prev_val:
                break
            prev_val = val
        if trace.final_cost <= config.cost_tolerance:
            break
        if r < max_rank:
            start = rank_one_update(prob_r, solved, seed + r + 1, exact_scale=True)
    return (best_x if validation is not None else x), steps


def trace_rows(trace):
    return [(r.iteration, r.cost, r.grad_norm, r.step, r.backtracks, r.reset)
            for r in trace.rows]


def assert_same_point(a, b):
    for fa, fb in zip((a.U, a.R, a.V), (b.U, b.R, b.V)):
        assert fa.shape == fb.shape and fa.tobytes() == fb.tobytes()


def named_reason(reason, fired):
    """A monitor-protocol reason with "monitor_stop" named by its rule."""
    return fired if reason == MONITOR_STOP else reason


def test_early_stopped_solve_without_validation_is_cg_solve():
    problem, _ = make_problem(30, 30, 2, 4.0, 61, noise=1e-3)
    x0 = random_point(30, 30, 2, 62)
    config = SolverConfig(max_iterations=40)
    for stops in ((), (lambda trace, x: "seventh" if trace.iterations >= 7 else None,)):
        step = early_stopped_solve(problem, x0, config, stops=stops)
        x_ref, trace_ref = cg_solve(problem, x0, config, stops)
        assert step.validation_mse is None and step.rank == 2
        assert_same_point(step.point, x_ref)
        assert trace_rows(step.trace) == trace_rows(trace_ref)
        assert step.trace.reason == trace_ref.reason


@pytest.mark.parametrize("max_iterations", [500, 12, 1])
def test_early_stopped_solve_matches_a_hand_attached_validation_monitor(max_iterations):
    # rank 5 on noisy rank-2 data overfits: the validation error turns up
    # and, with the full budget, the solve stops five rises past its best
    train, val = train_and_validation(30, 30, 2, 360, 90, 63, 0.05)
    problem = CompletionProblem(train, 5)
    x0 = random_point(30, 30, 5, 64)
    config = SolverConfig(max_iterations=max_iterations)
    step = early_stopped_solve(problem, x0, config, val)
    x, trace, v = step.point, step.trace, step.validation_mse
    x_ref, trace_ref, v_ref, fired = monitor_protocol_early_stopped_solve(
        problem, x0, config, val)
    assert_same_point(x, x_ref)
    assert trace_rows(trace) == trace_rows(trace_ref)
    assert trace.reason == named_reason(trace_ref.reason, fired)
    assert v == v_ref
    history = []
    cg_solve(problem, x0, SolverConfig(max_iterations=trace.iterations),
             (lambda trace, y: history.append(mean_squared_error(y, val)),))
    assert v == min(history) == mean_squared_error(x, val)
    if max_iterations == 500:
        assert trace_ref.reason == "monitor_stop"
        assert trace.reason == "validation_rise" and trace.converged
        assert v < history[-1]


def test_early_stopped_solve_extra_monitor_stops_a_validated_solve():
    train, val = train_and_validation(30, 30, 2, 360, 90, 63, 0.05)
    problem = CompletionProblem(train, 5)
    x0 = random_point(30, 30, 5, 64)
    seen = []

    def stop_at_four(trace, x):
        seen.append(trace.iterations)
        return "fourth" if trace.iterations >= 4 else None

    step = early_stopped_solve(problem, x0, SolverConfig(), val, (stop_at_four,))
    x, trace, v = step.point, step.trace, step.validation_mse
    assert trace.iterations == 4 and trace.reason == "fourth"
    assert seen == [1, 2, 3, 4]
    history = []
    cg_solve(problem, x0, SolverConfig(max_iterations=4),
             (lambda trace, y: history.append(mean_squared_error(y, val)),))
    assert v == min(history) == mean_squared_error(x, val)


@pytest.mark.parametrize("validated", [False, True])
def test_rank_incremental_solve_matches_the_hand_written_homotopy(validated):
    train, val = train_and_validation(40, 40, 3, 500, 150, 65, 0.01)
    problem = CompletionProblem(train, 3)
    validation = val if validated else None
    config = SolverConfig(max_iterations=200)
    step, steps = rank_incremental_solve(problem_at_rank(problem, 5), config, seed=3,
                                         validation=validation)
    x_ref, steps_ref = hand_written_homotopy(problem, 5, validation, config, seed=3)
    assert_same_point(step.point, x_ref)
    assert [(s.rank, trace_rows(s.trace), s.trace.reason, s.validation_mse)
            for s in steps] == [(r, trace_rows(t), named_reason(t.reason, fired), v)
                                for r, t, v, fired in steps_ref]
    assert len(steps) > 1


@pytest.mark.parametrize("validated", [False, True])
def test_rank_incremental_solve_matches_the_monitor_protocol(validated, monkeypatch):
    # the homotopy's own loop, with each rank solved as the monitor protocol
    # composed it: the validation monitor or'ed with a deque cost plateau
    train, val = train_and_validation(40, 40, 3, 500, 150, 65, 0.01)
    problem = CompletionProblem(train, 3)
    validation = val if validated else None
    config = SolverConfig(max_iterations=200)
    step, steps = rank_incremental_solve(problem_at_rank(problem, 5), config, seed=3,
                                         validation=validation)
    fired = []

    def protocol_solve(prob_r, x0, config, validation, stops):
        assert stops == (cost_plateau,)
        x, trace, v, rule = monitor_protocol_early_stopped_solve(
            prob_r, x0, config, validation, monitor_protocol_plateau())
        fired.append(rule)
        return RankStep(x, trace, v)

    monkeypatch.setattr(solver_module, "early_stopped_solve", protocol_solve)
    step_ref, steps_ref = rank_incremental_solve(problem_at_rank(problem, 5), config,
                                                 seed=3, validation=validation)
    assert_same_point(step.point, step_ref.point)
    assert len(steps) == len(steps_ref) == len(fired) > 1
    for s, ref, rule in zip(steps, steps_ref, fired):
        assert (s.rank, trace_rows(s.trace), s.validation_mse) == (
            ref.rank, trace_rows(ref.trace), ref.validation_mse)
        assert s.trace.reason == named_reason(ref.trace.reason, rule)
    # ranks 1 and 2 end on the rule this case exercises
    rule = "validation_rise" if validated else "cost_plateau"
    assert [s.trace.reason for s in steps[:2]] == [rule, rule]


def test_validation_rule_is_asked_before_the_further_stops():
    train, val = train_and_validation(30, 30, 2, 360, 90, 63, 0.05)
    problem = CompletionProblem(train, 5)
    x0 = random_point(30, 30, 5, 64)
    asked = []

    def plateau(trace, x):
        asked.append(trace.iterations)
        return cost_plateau(trace, x)

    trace = early_stopped_solve(problem, x0, SolverConfig(), val, (plateau,)).trace
    assert trace.reason == "validation_rise"
    assert asked == list(range(1, trace.iterations))


def test_cost_plateau_compares_the_cost_a_window_back():
    window, tol = solver_module.PLATEAU_WINDOW, solver_module.PLATEAU_TOL

    def trace_of(costs):
        return SolverTrace(initial_cost=2.0, rows=[
            TraceRow(k + 1, c, 0.0, 1.0, 0, False, 0.0) for k, c in enumerate(costs)])

    flat = [1.0] * window
    assert cost_plateau(trace_of(flat), None) is None  # a window spans window + 1 costs
    assert cost_plateau(trace_of(flat + [1.0 - 0.5 * tol]), None) == "cost_plateau"
    assert cost_plateau(trace_of(flat + [1.0 - 2.0 * tol]), None) is None
    # a fall of exactly the tolerance is a plateau (1e-6 * 1e6 is exactly 1.0)
    assert tol * 1e6 == 1.0
    assert cost_plateau(trace_of([1e6] * window + [1e6 - 1.0]), None) == "cost_plateau"
    # the fall counts from exactly window iterations back
    steady = [1.0] + [1.0 - tol] * (window - 1) + [1.0 - 1.5 * tol]
    assert cost_plateau(trace_of(steady), None) is None
    assert cost_plateau(trace_of([5.0] + flat + [1.0]), None) == "cost_plateau"


def test_rank_incremental_solve_returns_the_first_rank_with_the_lowest_validation_error(
        monkeypatch):
    # scripted per-rank errors: ranks 2 and 3 tie for the lowest, and rank
    # 4's rise over rank 3 ends the homotopy before rank 5
    train, val = train_and_validation(30, 30, 4, 500, 100, 66, 0.01)
    scripted = iter([0.5, 0.3, 0.3, 0.4, 0.1])
    points = []
    real = solver_module.early_stopped_solve

    def scripted_solve(*args, **kwargs):
        step = real(*args, **kwargs)
        points.append(step.point)
        return RankStep(step.point, step.trace, next(scripted))

    monkeypatch.setattr(solver_module, "early_stopped_solve", scripted_solve)
    step, steps = rank_incremental_solve(CompletionProblem(train, 5), validation=val)
    assert [s.validation_mse for s in steps] == [0.5, 0.3, 0.3, 0.4]
    assert step.point is points[1] and step.rank == 2


@pytest.mark.parametrize("validated", [False, True])
def test_rank_incremental_solve_returns_one_of_its_steps(validated):
    train, val = train_and_validation(40, 40, 3, 500, 150, 65, 0.01)
    validation = val if validated else None
    step, steps = rank_incremental_solve(CompletionProblem(train, 5),
                                         SolverConfig(max_iterations=200), seed=3,
                                         validation=validation)
    assert [s for s in steps if s is step] == [step]
    if validated:
        mses = [s.validation_mse for s in steps]
        assert step is steps[mses.index(min(mses))]
        assert step.validation_mse == mean_squared_error(step.point, val)
    else:
        assert step is steps[-1]
        assert all(s.validation_mse is None for s in steps)
    assert [s.rank for s in steps] == [s.point.r for s in steps] == list(
        range(1, len(steps) + 1))


def test_truncated_oversampling_formula():
    problem, _ = make_problem(20, 40, 2, 4.0, 56)
    alpha = 10 / 20
    want = problem.oversampling * alpha / (1 + alpha)
    assert truncated_oversampling(problem, 10) == pytest.approx(want, rel=1e-12)


def test_truncated_warm_start_with_all_columns_nearly_solves():
    problem, x_true = make_problem(50, 80, 3, 4.0, 57)
    warm = truncated_warm_start(problem, 80, seed=3)
    assert cost(problem, warm) <= 1e-8
    x, trace = cg_solve(problem, warm)
    assert trace.final_cost <= 1e-12


def test_truncated_warm_start_handles_tall_problems():
    problem, x_true = make_problem(80, 50, 3, 5.0, 58)
    warm = truncated_warm_start(problem, 40, seed=4)
    assert warm.n == 80 and warm.m == 50 and warm.r == 3
    assert cost(problem, warm) <= 1e-6


def test_truncated_warm_start_bounds():
    problem, _ = make_problem(20, 30, 3, 4.0, 59)
    with pytest.raises(ConfigError):
        truncated_warm_start(problem, 2)
    with pytest.raises(ConfigError):
        truncated_warm_start(problem, 31)
    with pytest.warns(RuntimeWarning, match="undersampled"):
        warm = truncated_warm_start(problem, 3, seed=5)
    assert warm.r == 3


def test_truncated_warm_start_warns_on_empty_columns():
    x = random_point(8, 10, 1, 60)
    rows, cols = np.divmod(np.arange(72), 9)
    entries = ObservedEntries(8, 10, rows, cols, x.matrix()[rows, cols])
    problem = CompletionProblem(entries, 1)
    with pytest.warns(RuntimeWarning, match="no observed entries"):
        warm = truncated_warm_start(problem, 10, seed=6)
    assert warm.r == 1


def test_truncated_warm_start_fit_matches_dense_least_squares():
    problem, _ = make_problem(30, 200, 3, 3.0, 61, noise=1e-3)
    config = SolverConfig(gradient_norm_tolerance=1e-8)
    warm = truncated_warm_start(problem, 100, config, seed=7)
    e = problem.entries
    fitted = warm.matrix()
    checked = 0
    for j in range(e.m):
        a, b = warm.U[e.rows[e.cols == j]], e.vals[e.cols == j]
        if b.size < problem.rank:
            continue
        coef = np.linalg.lstsq(a, b, rcond=None)[0]
        # the 1e-10 ridge moves the fit by at most 1e-10 |coef| / smin^2
        smin = np.linalg.svd(a, compute_uv=False)[-1]
        tol = 1e-9 * np.linalg.norm(coef) / smin**2 + 1e-12
        np.testing.assert_allclose(fitted[:, j], warm.U @ coef, rtol=0, atol=tol)
        checked += 1
    assert checked >= 0.9 * e.m


def test_truncated_warm_start_rejects_rank_deficient_coefficients():
    # all-zero data fits every column with zero coefficients
    rows, cols = sample_mask(20, 60, 600, 64)
    problem = CompletionProblem(ObservedEntries(20, 60, rows, cols, np.zeros(600)), 2)
    with pytest.raises(SingularMatrixError, match="fitted coefficients are rank deficient"):
        truncated_warm_start(problem, 20, seed=10)


def test_truncated_warm_start_warns_on_under_determined_columns():
    x = random_point(20, 30, 3, 62)
    full = np.ones((20, 30), dtype=bool)
    full[2:, 5] = False   # two observations
    full[1:, 7] = False   # one observation
    rows, cols = np.nonzero(full)
    entries = ObservedEntries(20, 30, rows, cols, x.matrix()[rows, cols])
    problem = CompletionProblem(entries, 3)
    with pytest.warns(RuntimeWarning, match="2 columns have fewer observed entries"):
        truncated_warm_start(problem, 30, seed=8)


def test_truncated_warm_start_warns_when_the_inner_solve_stops_early():
    problem, _ = make_problem(20, 30, 2, 4.0, 63)
    with pytest.warns(RuntimeWarning, match=r"without converging \(max_iterations\)"):
        warm = truncated_warm_start(problem, 20, SolverConfig(max_iterations=1), seed=9)
    assert warm.r == 2


def test_truncated_warm_start_warnings_point_at_the_caller_on_tall_problems():
    problem, _ = synthesize(SyntheticSpec(60, 30, 2, 1.5), seed=3)
    config = SolverConfig(max_iterations=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warm = truncated_warm_start(problem, 5, config)
    assert len(caught) == 3   # undersampled, inner stop, under-determined rows
    assert [w.filename for w in caught] == [__file__] * 3
    # the short lines of a tall problem are its rows
    assert "rows have fewer observed entries" in str(caught[2].message)
    assert not any("columns" in str(w.message) for w in caught)
    # the tall problem is fitted in the wide orientation and transposed back
    e = problem.entries
    wide = CompletionProblem(ObservedEntries(30, 60, e.cols, e.rows, e.vals), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        flipped = truncated_warm_start(wide, 5, config)
    assert np.array_equal(warm.U, flipped.V) and np.array_equal(warm.V, flipped.U)
    assert np.array_equal(warm.R, flipped.R.T)
    # an empty row of a tall problem is named as a row, not a column
    problem, _ = synthesize(SyntheticSpec(60, 20, 2, 4.0), seed=1)
    e = problem.entries
    keep = e.rows != 3
    holed = CompletionProblem(
        ObservedEntries(60, 20, e.rows[keep], e.cols[keep], e.vals[keep]), 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        truncated_warm_start(holed, 30, SolverConfig(max_iterations=50))
    assert [str(w.message).split(";")[0] for w in caught][-1:] == [
        "1 rows have no observed entries"]
