"""Nonlinear conjugate gradient on the fixed-rank quotient, plus the
rank-updating homotopy and the truncated-column warm start.

The search direction follows Polak-Ribiere with nonnegativity clipping
and a reset to steepest descent whenever the combined direction fails
the descent test or its line search finds no step.  Each step transports
one vector, the previous direction: the transport is a pair of projections
orthogonal in the new point's metric, so the PR+ numerator reads the
previous gradient as it is (``pr_plus_beta``).  Step sizes seed
from the exact minimizer of the linearized objective and backtrack
under the Armijo rule.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ContractViolationError,
    DegenerateDirectionError,
    DimensionError,
    RetractionError,
    SingularMatrixError,
)
from .manifold import (
    FixedRankPoint,
    metric,
    random_point,
    retract,
    transport_to,
)
from .problem import (
    CompletionProblem,
    ObservedEntries,
    SparseResidual,
    evaluate,
    initial_step,
    mean_squared_error,
    outer_values,
    residual,
    riemannian_gradient,
    sparse_apply,
)
from .rng import CounterRng
from .smallmat import RANK_TOL

REASON_COST = "cost_tolerance"
REASON_GRADIENT = "gradient_tolerance"
REASON_MAX_ITERATIONS = "max_iterations"
REASON_STALL = "line_search_stall"
REASON_PLATEAU = "cost_plateau"
REASON_VALIDATION = "validation_rise"
REASON_NON_FINITE = "non_finite"

CONVERGED_REASONS = (REASON_COST, REASON_GRADIENT, REASON_PLATEAU, REASON_VALIDATION)

# straight rises of the validation error that stop an early-stopped solve
VALIDATION_WINDOW = 5
# the homotopy leaves a rank once the cost fell by at most PLATEAU_TOL,
# relatively, over the last PLATEAU_WINDOW accepted iterations
PLATEAU_WINDOW = 10
PLATEAU_TOL = 1e-6
# the line search accepts step s once the cost fell by at least
# ARMIJO_SLOPE * s * |slope|, shrinking s by BACKTRACK_FACTOR at most
# MAX_BACKTRACKS times
ARMIJO_SLOPE = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 25
# the power iteration stops once the Rayleigh quotient changed by at most
# POWER_TOL, relatively, or after POWER_MAX_ITERATIONS products
POWER_TOL = 1e-8
POWER_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class SolverConfig:
    """Stop rules for one conjugate-gradient run.

    The gradient stop is relative: the solve halts once the gradient norm
    falls below ``gradient_norm_tolerance`` times the starting gradient
    norm.
    """

    max_iterations: int = 500
    cost_tolerance: float = 1e-20
    gradient_norm_tolerance: float = 1e-14

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least one")
        if not (0.0 <= self.cost_tolerance < np.inf
                and 0.0 <= self.gradient_norm_tolerance < np.inf):
            raise ConfigError("tolerances must be finite and nonnegative")


@dataclass(frozen=True)
class TraceRow:
    """One accepted iteration: post-step cost and line-search detail."""

    iteration: int
    cost: float
    grad_norm: float
    step: float
    backtracks: int
    reset: bool
    time_s: float


@dataclass
class SolverTrace:
    """Iteration history of one solve; costs are non-increasing."""

    initial_cost: float
    rows: list = field(default_factory=list)
    reason: str = ""

    @property
    def iterations(self):
        return len(self.rows)

    @property
    def final_cost(self):
        return self.rows[-1].cost if self.rows else self.initial_cost

    @property
    def converged(self):
        return self.reason in CONVERGED_REASONS


def pr_plus_beta(x_new, grad_new, grad_prev, new_norm_sq, prev_norm_sq):
    """Polak-Ribiere coefficient clipped at zero,

        beta = max(0, (g(xi, xi) - g(xi, xi_prev)) / g(xi_prev, xi_prev)),

    with ``new_norm_sq`` = g(xi, xi) and the metric g at ``x_new``.  The
    transport T is the tangent and then the horizontal projection at
    x_new, both orthogonal in its metric, and xi is horizontal there, so
    g(xi, T(xi_prev)) = g(xi, xi_prev): the previous gradient's blocks
    enter as they are, untransported.
    """
    if prev_norm_sq <= 0.0:
        raise ContractViolationError("previous gradient norm must be positive")
    raw = new_norm_sq - metric(x_new, grad_new, grad_prev)
    return max(0.0, raw / prev_norm_sq)


def _line_search(problem, ev, eta, slope, steepest):
    """One attempt along eta from the evaluated point ev: seed the step
    with the linearized minimizer, then backtrack until the Armijo bound
    holds.  Returns the accepted trial's evaluation, its step and the
    backtrack count, or None when the linearized minimizer is not
    positive and finite (the one non-descent test) or the backtracks run
    out.  A direction invisible on the pattern gives None, or a unit step
    when it is the ``steepest`` descent one.  Each trial point is
    evaluated once."""
    try:
        s = initial_step(problem, ev, eta)
    except DegenerateDirectionError:
        if not steepest:
            return None
        s = 1.0
    if not 0.0 < s < np.inf:
        return None
    for k in range(MAX_BACKTRACKS + 1):
        try:
            y = retract(ev.point, eta, s)
        except RetractionError:
            s *= BACKTRACK_FACTOR
            continue
        trial = evaluate(problem, y)
        if trial.cost <= ev.cost + ARMIJO_SLOPE * s * slope:
            return trial, s, k
        s *= BACKTRACK_FACTOR
    return None


def cg_solve(problem, x0, config=SolverConfig(), stops=()):
    """Minimize the completion objective from x0 at the problem's rank.

    Parameters
    ----------
    problem : CompletionProblem
    x0 : FixedRankPoint
        Start point; its rank must equal ``problem.rank``.
    config : SolverConfig
    stops : sequence of callables
        Stop rules, asked in order as ``rule(trace, point)`` after each
        accepted step.  A rule returns its reason or None; the first
        reason ends the solve and the later rules are not asked.

    Returns
    -------
    (FixedRankPoint, SolverTrace)
        The best iterate found and the per-iteration trace.  The trace
        reason is one of cost_tolerance, gradient_tolerance,
        max_iterations, line_search_stall, non_finite (the cost or the
        gradient norm at the iterate overflowed), or the reason of the
        stop rule that fired.
    """
    if x0.n != problem.n or x0.m != problem.m:
        raise DimensionError("start point does not match the problem grid")
    if x0.r != problem.rank:
        raise DimensionError("start point rank does not match the problem rank")

    t0 = time.perf_counter()
    ev = evaluate(problem, x0)
    trace = SolverTrace(initial_cost=ev.cost)
    grad = riemannian_gradient(problem, ev)
    grad_norm_sq = metric(x0, grad, grad)
    grad_norm_0 = np.sqrt(grad_norm_sq)
    eta = -grad

    while True:
        # tested first: with an infinite starting norm, the relative
        # gradient stop below would pass any gradient
        if not (np.isfinite(ev.cost) and np.isfinite(grad_norm_sq)):
            trace.reason = REASON_NON_FINITE
            break
        if ev.cost <= config.cost_tolerance:
            trace.reason = REASON_COST
            break
        if np.sqrt(grad_norm_sq) <= config.gradient_norm_tolerance * grad_norm_0:
            trace.reason = REASON_GRADIENT
            break
        if trace.iterations >= config.max_iterations:
            trace.reason = REASON_MAX_ITERATIONS
            break

        # the CG direction while it descends, then steepest descent
        slope = metric(ev.point, grad, eta)
        for reset in (True,) if slope >= 0.0 else (False, True):
            if reset:
                eta, slope = -grad, -grad_norm_sq
            accepted = _line_search(problem, ev, eta, slope, reset)
            if accepted is not None:
                break
        else:
            trace.reason = REASON_STALL
            break

        ev, s, backtracks = accepted
        grad_new = riemannian_gradient(problem, ev)
        grad_new_norm_sq = metric(ev.point, grad_new, grad_new)
        beta = pr_plus_beta(ev.point, grad_new, grad, grad_new_norm_sq, grad_norm_sq)
        eta = -grad_new + beta * transport_to(ev.point, eta)
        grad, grad_norm_sq = grad_new, grad_new_norm_sq
        trace.rows.append(
            TraceRow(
                iteration=trace.iterations + 1,
                cost=ev.cost,
                grad_norm=float(np.sqrt(grad_norm_sq)),
                step=s,
                backtracks=backtracks,
                reset=reset,
                time_s=time.perf_counter() - t0,
            )
        )
        trace.reason = next(filter(None, (rule(trace, ev.point) for rule in stops)), "")
        if trace.reason:
            break

    return ev.point, trace


def _dominant_residual_pair(res, seed):
    """Dominant singular triple (sigma, u, v) of a sparse residual.

    Power iteration on ST S from a seeded gaussian start; stops when the
    Rayleigh quotient changes by less than ``POWER_TOL`` relatively.  It
    runs on S 2^-e, with e the exponent of max |S| (``np.frexp``), so its
    products stay finite for any finite S; a power of two scales exactly,
    so u and v are the unscaled iteration's and sigma is the scaled one's
    times 2^e.
    """
    rng = CounterRng(seed)
    m = res.pattern.m
    v = rng.standard_normal((m, 1))
    scale = np.linalg.norm(v)
    top = max(res.vals.max(), -res.vals.min())
    if top == 0.0:
        raise DegenerateDirectionError("residual is identically zero")
    e = int(np.frexp(top)[1])
    res = SparseResidual(res.pattern, np.ldexp(res.vals, -e))
    v /= scale
    rayleigh = -np.inf
    for _ in range(POWER_MAX_ITERATIONS):
        w = sparse_apply(res, v)
        z = sparse_apply(res, w, transpose=True)
        new_rayleigh = float(v[:, 0] @ z[:, 0])
        norm_z = np.linalg.norm(z)
        if norm_z == 0.0:
            # Start vector orthogonal to the residual row space; reseed.
            v = rng.standard_normal((m, 1))
            v /= np.linalg.norm(v)
            rayleigh = -np.inf
            continue
        v = z / norm_z
        if abs(new_rayleigh - rayleigh) <= POWER_TOL * max(abs(new_rayleigh), 1e-300):
            rayleigh = new_rayleigh
            break
        rayleigh = new_rayleigh
    w = sparse_apply(res, v)
    sigma = float(np.linalg.norm(w))
    if sigma == 0.0:
        raise DegenerateDirectionError("residual has no dominant direction")
    return float(np.ldexp(sigma, e)), (w / sigma).ravel(), v.ravel()


def initial_rank_one_point(problem, seed=0):
    """Rank-one start: minus the dominant singular triple of the residual
    at the zero matrix (the scaled negated data on the pattern).  Raises
    DegenerateDirectionError when every observed value is zero."""
    scale = -2.0 / problem.entries.count
    res = SparseResidual(problem.entries, scale * problem.entries.vals)
    try:
        sigma, u, v = _dominant_residual_pair(res, seed)
    except DegenerateDirectionError:
        raise DegenerateDirectionError("every observed value of the data is zero; "
                                       "it has no rank-one start") from None
    return FixedRankPoint(u[:, None], np.array([[-sigma]]), v[:, None])


def _complement_direction(basis, vec, rng):
    """Component of vec orthogonal to the basis columns, unit length.

    Projects twice so the result stays orthogonal to working precision
    even for marginal inputs.  Falls back to random directions when vec
    itself (numerically) lies in the span; the second return value is
    False in that case.
    """
    candidate = np.asarray(vec, dtype=np.float64)
    fresh = True
    while True:
        perp = candidate - basis @ (basis.T @ candidate)
        perp -= basis @ (basis.T @ perp)
        scale = np.linalg.norm(perp)
        if scale > 1e-12 * max(np.linalg.norm(candidate), 1.0):
            return perp / scale, fresh
        candidate = rng.standard_normal(candidate.shape)
        fresh = False


def rank_one_update(problem, x, seed=0, exact_scale=False):
    """Grow the rank by one along the dominant direction of the residual.

    Appends orthonormalized u and v to the factors and rebuilds the
    middle factor so the new point represents exactly
    U R VT - sigma u vT, where (sigma, u, v) is the dominant singular
    triple of the current residual.  When a direction numerically lies
    in the existing factor span, subtracting along it cannot leave the
    span, so it is replaced by a random complement direction with a
    warning and the update acts along the replacement instead.

    With ``exact_scale`` the magnitude sigma is replaced by the exact
    one-dimensional minimizer of the objective along the update
    direction, which can only lower the cost of the updated point.
    """
    if x.r >= min(x.n, x.m):
        raise ConfigError("rank is already at min(n, m)")
    ev = evaluate(problem, x)
    sigma, u, v = _dominant_residual_pair(residual(problem, ev), seed)
    rng = CounterRng(seed + 1)
    u_new, u_fresh = _complement_direction(x.U, u, rng)
    v_new, v_fresh = _complement_direction(x.V, v, rng)
    if not (u_fresh and v_fresh):
        warnings.warn(
            "residual direction lies in the factor span; perturbing with "
            "a random complement direction",
            RuntimeWarning,
            stacklevel=2,
        )
        if not u_fresh:
            u = u_new
        if not v_fresh:
            v = v_new
    if exact_scale:
        e = ev.error
        d = outer_values(u, v, problem.entries)
        dd = float(d @ d)
        if dd > 0.0 and float(e @ d) != 0.0:
            sigma = float(e @ d) / dd
    u_plus = np.column_stack([x.U, u_new])
    v_plus = np.column_stack([x.V, v_new])
    r_plus = (u_plus.T @ x.U) @ x.R @ (x.V.T @ v_plus)
    r_plus -= sigma * np.outer(u_plus.T @ u, v_plus.T @ v)
    return FixedRankPoint(u_plus, r_plus, v_plus)


def check_held_out(name, part, train):
    """Raise ConfigError unless the held-out ``name`` pattern ``part`` is
    non-empty, lies on the grid of ``train`` and shares no cell with it."""
    if part.count == 0:
        raise ConfigError("%s pattern is empty" % name)
    if (part.n, part.m) != (train.n, train.m):
        raise ConfigError("%s grid %d x %d does not match the data grid %d x %d"
                          % (name, part.n, part.m, train.n, train.m))
    # cell numbers; the training ones are sorted and unique, as in every
    # ObservedEntries, so each held-out cell is looked up, not sorted in
    lin_train = train.rows * train.m + train.cols
    lin_part = part.rows * part.m + part.cols
    at = np.searchsorted(lin_train, lin_part)
    if train.count and np.any(lin_train.take(at, mode="clip") == lin_part):
        raise ConfigError("%s pattern overlaps the training pattern" % name)


class ValidationMonitor:
    """``cg_solve`` stop rule: "validation_rise" after ``VALIDATION_WINDOW``
    straight rises of the validation error.  Keeps the iterate where that
    error was lowest."""

    def __init__(self, validation):
        self.validation = validation
        self.best, self.best_x, self.prev, self.rises = np.inf, None, np.inf, 0
        self.last_x = None

    def __call__(self, trace, x):
        v = mean_squared_error(x, self.validation)
        if v < self.best:
            self.best, self.best_x = v, x
        self.rises = self.rises + 1 if v > self.prev else 0
        self.prev, self.last_x = v, x
        return REASON_VALIDATION if self.rises >= VALIDATION_WINDOW else None

    def best_point(self, x):
        """(point, validation MSE): the best monitored iterate, or x if no
        worse; x is scored again only when it is not the last monitored one."""
        v = self.prev if x is self.last_x else mean_squared_error(x, self.validation)
        return (self.best_x, self.best) if self.best < v else (x, v)


@dataclass(frozen=True)
class RankStep:
    """Outcome of one early-stopped solve: the point it returns, the
    solve's trace, and the point's validation MSE (None without
    validation)."""

    point: FixedRankPoint
    trace: SolverTrace
    validation_mse: float | None

    @property
    def rank(self):
        return self.point.r


def early_stopped_solve(problem, x0, config=SolverConfig(), validation=None,
                        stops=()):
    """``cg_solve``, early-stopped on a validation pattern when one is given.

    With ``validation`` a ``ValidationMonitor`` is asked first, ahead of
    the further ``stops``; it ends the solve after ``VALIDATION_WINDOW``
    straight rises of the validation error, and the returned point is the
    iterate where that error was lowest.

    Returns the solve's RankStep.
    """
    if validation is None:
        return RankStep(*cg_solve(problem, x0, config, stops), None)
    tracker = ValidationMonitor(validation)
    x, trace = cg_solve(problem, x0, config, (tracker, *stops))
    x, val = tracker.best_point(x)
    return RankStep(x, trace, val)


def cost_plateau(trace, x):
    """``cg_solve`` stop rule: "cost_plateau" once the cost fell by at most
    ``PLATEAU_TOL``, relatively, over the last ``PLATEAU_WINDOW`` iterations."""
    if trace.iterations > PLATEAU_WINDOW:
        old = trace.rows[-PLATEAU_WINDOW - 1].cost
        if old - trace.final_cost <= PLATEAU_TOL * max(old, 1e-300):
            return REASON_PLATEAU
    return None


def rank_incremental_solve(problem, config=SolverConfig(), seed=0, validation=None):
    """Homotopy over ranks: solve, grow by one, repeat.

    Starts from the rank-one initializer, runs ``early_stopped_solve`` on
    ``validation`` with the ``cost_plateau`` rule at each rank from one up
    to ``problem.rank``, and grows through ``rank_one_update``.  With a
    validation pattern the homotopy stops once a rank's validation error
    exceeds the previous rank's, and chooses the first step with the
    lowest error; without one it chooses the last step.  A rank whose
    solve ends ``non_finite`` is the last one visited.

    Returns (step, steps): the chosen RankStep and one RankStep per visited rank.
    """
    if validation is not None:
        check_held_out("validation", validation, problem.entries)

    x = initial_rank_one_point(problem, seed)
    steps = []
    for r in range(1, problem.rank + 1):
        prob_r = CompletionProblem(problem.entries, r)
        try:
            step = early_stopped_solve(prob_r, x, config, validation, (cost_plateau,))
        except SingularMatrixError:
            # the grown direction sits below the numerical noise of the
            # previous fit, so the homotopy is exhausted, not broken
            if not steps:
                raise
            break
        steps.append(step)
        if validation is not None and len(steps) > 1 and (
                step.validation_mse > steps[-2].validation_mse):
            break
        if (step.trace.reason == REASON_NON_FINITE
                or step.trace.final_cost <= config.cost_tolerance):
            break
        if r < problem.rank:
            try:
                # grow with the exact one-dimensional step: the raw sigma of
                # the mean-scaled residual shrinks with 1/|Omega|, which
                # would leave the grown factor numerically rank deficient
                x = rank_one_update(prob_r, step.point, seed + r + 1, exact_scale=True)
            except (DegenerateDirectionError, SingularMatrixError):
                break

    # min keeps the first of equal errors
    best = steps[-1] if validation is None else min(steps, key=lambda s: s.validation_mse)
    return best, steps


def _transpose_entries(entries):
    return ObservedEntries(entries.m, entries.n, entries.cols, entries.rows, entries.vals)


def _transpose_point(x):
    return FixedRankPoint(x.V, x.R.T, x.U)


def truncated_oversampling(problem, p):
    """Oversampling ratio of the p-column truncated problem, wide orientation."""
    n = min(problem.n, problem.m)
    alpha = p / n
    return problem.oversampling * alpha / (1.0 + alpha)


def truncated_warm_start(problem, p, config=SolverConfig(), seed=0):
    """Warm start by completing p random columns, then least squares.

    Solves the completion restricted to p uniformly chosen columns (of
    the wide orientation; the problem is transposed internally when
    n > m), keeps its left factor U, fits each full column of the data
    by ridge least squares against U, and orthonormalizes the fitted
    coefficients into (R, V).  Warns when the truncated problem drops
    below unit oversampling, when the truncated solve does not converge,
    and when columns (rows of a tall problem) carry no observations or
    fewer than the rank.
    """
    rank = problem.rank
    tall = problem.n > problem.m
    ent = _transpose_entries(problem.entries) if tall else problem.entries
    n, m = ent.n, ent.m
    if not rank <= p <= m:
        raise ConfigError("warm-start columns p = %d must lie in [rank, max(n, m)] = "
                          "[%d, %d] on the %d x %d grid"
                          % (p, rank, m, problem.n, problem.m))
    if truncated_oversampling(problem, p) <= 1.0:
        warnings.warn(
            "truncated problem is undersampled (ratio %.3f); the warm "
            "start may be poor" % truncated_oversampling(problem, p),
            RuntimeWarning,
            stacklevel=2,
        )

    rng = CounterRng(seed)
    chosen = rng.sample_without_replacement(m, p)
    remap = np.full(m, -1, dtype=np.int64)
    remap[chosen] = np.arange(p)
    keep = remap[ent.cols] >= 0
    trunc = ObservedEntries(n, p, ent.rows[keep], remap[ent.cols[keep]], ent.vals[keep])
    trunc_problem = CompletionProblem(trunc, rank)
    x0 = random_point(n, p, rank, seed + 1)
    x_trunc, inner = cg_solve(trunc_problem, x0, config)
    if not inner.converged:
        warnings.warn("truncated solve stopped without converging (%s); the warm "
                      "start may be poor" % inner.reason, RuntimeWarning, stacklevel=2)
    u = x_trunc.U

    # per-column normal equations: gram[j] = U_jT U_j and rhs[j] = U_jT b_j
    # over the observed rows of column j, both scatter-added on the pattern
    gram = np.stack([sparse_apply(SparseResidual(ent, np.repeat(u[:, a], ent.row_counts)),
                                  u, transpose=True)
                     for a in range(rank)], axis=1)
    rhs = sparse_apply(SparseResidual(ent, ent.vals), u, transpose=True)
    w = np.linalg.solve(gram + 1e-10 * np.eye(rank), rhs[:, :, None])[:, :, 0]
    counts = np.bincount(ent.cols, minlength=m)
    axis = "rows" if tall else "columns"
    empty = np.count_nonzero(counts == 0)
    if empty:
        warnings.warn("%d %s have no observed entries; their fitted coefficients "
                      "are zero" % (empty, axis), RuntimeWarning, stacklevel=2)
    short = np.count_nonzero((counts > 0) & (counts < rank))
    if short:
        warnings.warn("%d %s have fewer observed entries than the rank %d; their "
                      "fit is under-determined" % (short, axis, rank),
                      RuntimeWarning, stacklevel=2)
    q, t = np.linalg.qr(w)
    sig = np.linalg.svd(t, compute_uv=False)
    if not sig[-1] > RANK_TOL * sig[0]:
        raise SingularMatrixError("fitted coefficients are rank deficient")
    x = FixedRankPoint(u, t.T, q)
    return _transpose_point(x) if tall else x
