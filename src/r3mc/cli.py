"""Command line interface.

Subcommands: synth (generate a problem), complete (solve one), bench
(sweep configurations with aggregate statistics), movielens-prep
(convert a ratings file into Matrix Market splits).

Exit codes: 0 solved, 2 bad configuration or unreadable input, 3
iteration budget exhausted, 4 line-search stall, 5 a cost or gradient
that overflowed (reason non_finite).  Reports are strict JSON: a
non-finite number in one is written as null.
Wall-clock fields in outputs are zeroed under --deterministic so that
identical seeded runs are byte-identical (pin BLAS threads to one for
full reproducibility).
"""

import argparse
import concurrent.futures
import functools
import itertools
import json
import math
import os
import statistics
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

from .data_io import (
    SyntheticSpec,
    check_fractions,
    parse_movielens,
    read_matrix_market,
    split_train_val_test,
    synthesize,
    to_entries,
    write_dense_matrix_market,
    write_matrix_market,
)
from .errors import (
    ConfigError,
    ContractViolationError,
    DegenerateDirectionError,
    DimensionError,
    ParseError,
    SingularMatrixError,
)
from .manifold import random_point
from .problem import (
    CompletionProblem,
    cost,
    mean_squared_error,
    op_count,
)
from .solver import (
    REASON_MAX_ITERATIONS,
    REASON_NON_FINITE,
    REASON_STALL,
    SolverConfig,
    cg_solve,
    check_held_out,
    early_stopped_solve,
    rank_incremental_solve,
    truncated_warm_start,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MAX_ITERATIONS = 3
EXIT_STALL = 4
EXIT_NON_FINITE = 5

_REASON_EXIT = {REASON_MAX_ITERATIONS: EXIT_MAX_ITERATIONS, REASON_STALL: EXIT_STALL,
                REASON_NON_FINITE: EXIT_NON_FINITE}

TRACE_HEADER = "iter,cost,grad_norm,step,backtracks,reset,time_s"


def _int_list(text):
    try:
        return [int(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError("expected a comma-separated integer list, got %r" % text)


def _float_list(text):
    try:
        return [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError("expected a comma-separated number list, got %r" % text)


def _distinct(option, values):
    """A sweep's value list; an empty one would run nothing, and a repeated
    value would run its tasks twice and count both copies in each of its
    summary rows."""
    if not values:
        raise ConfigError("%s lists no value" % option)
    if len(set(values)) < len(values):
        raise ConfigError("%s lists a value twice" % option)
    return values


def _atomic_write(path, write_body):
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write_body(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _strict_json(value):
    """value with each non-finite float in it replaced by None: JSON has no
    such number, and ``json.dump`` would write a NaN or Infinity token."""
    if isinstance(value, dict):
        return {key: _strict_json(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_strict_json(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _solver_config(args):
    return SolverConfig(
        max_iterations=args.max_iters,
        cost_tolerance=args.cost_tol,
        gradient_norm_tolerance=args.grad_tol,
    )


def _add_solver_options(sub):
    defaults = SolverConfig()
    sub.add_argument("--max-iters", type=int, default=defaults.max_iterations,
                     help="iteration budget")
    sub.add_argument("--cost-tol", type=float, default=defaults.cost_tolerance,
                     help="stop when cost falls below")
    sub.add_argument("--grad-tol", type=float, default=defaults.gradient_norm_tolerance,
                     help="stop on relative gradient norm")
    sub.add_argument("--deterministic", action="store_true",
                     help="zero wall-clock fields in outputs")


def cmd_synth(args):
    if args.os <= 1.0:
        if not args.force:
            raise ConfigError(
                "oversampling %.3g is at most one observation per degree of "
                "freedom; recovery is underdetermined (pass --force to "
                "generate anyway)" % args.os
            )
        print(
            "warning: oversampling %.3g is at most one; proceeding under --force"
            % args.os,
            file=sys.stderr,
        )
    spec = SyntheticSpec(
        n=args.n,
        m=args.m,
        rank=args.rank,
        oversampling=args.os,
        condition_number=args.cn,
    )
    problem, (left, right) = synthesize(spec, args.seed)
    out = Path(args.out)
    _atomic_write(out / "entries.mtx",
                  lambda fh: write_matrix_market(fh, problem.entries))
    _atomic_write(out / "left.mtx",
                  lambda fh: write_dense_matrix_market(fh, left))
    _atomic_write(out / "right.mtx",
                  lambda fh: write_dense_matrix_market(fh, right))
    print(
        "wrote %s: %d x %d rank %d, %d entries, oversampling %.6g"
        % (out, spec.n, spec.m, spec.rank, problem.entries.count,
           problem.oversampling)
    )
    return EXIT_OK


def _solve(args, problem, validation, config):
    """Run the configured solve: (the chosen RankStep, every RankStep of the solve)."""
    if args.rank_updates is not None:
        return rank_incremental_solve(problem, config, args.seed, validation)
    if validation is not None:
        # before the warm start's solve, so a bad file fails before any work
        check_held_out("validation", validation, problem.entries)
    if args.warm_start_cols is not None:
        x0 = truncated_warm_start(problem, args.warm_start_cols, config, args.seed)
    else:
        x0 = random_point(problem.n, problem.m, problem.rank, args.seed)
    step = early_stopped_solve(problem, x0, config, validation)
    return step, [step]


def cmd_complete(args):
    if args.rank_updates is not None:
        for flag, value in (("--rank", args.rank),
                            ("--warm-start-cols", args.warm_start_cols)):
            if value is not None:
                raise ConfigError("--rank-updates and %s are exclusive" % flag)
    elif args.rank is None:
        raise ConfigError("need --rank (or --rank-updates for the homotopy)")
    entries = read_matrix_market(args.data)
    rank = args.rank_updates if args.rank_updates is not None else args.rank
    problem = CompletionProblem(entries, rank)
    validation = read_matrix_market(args.val) if args.val else None
    test = None
    if args.test:
        test = read_matrix_market(args.test)
        check_held_out("test", test, entries)

    config = _solver_config(args)
    flops_before = op_count()
    t0 = time.perf_counter()
    step, steps = _solve(args, problem, validation, config)
    elapsed = 0.0 if args.deterministic else time.perf_counter() - t0
    # the solve's own sparse work, before the evaluations of the report below
    sparse_flops = op_count() - flops_before
    x, val_mse, reason = step.point, step.validation_mse, steps[-1].trace.reason
    final_cost = cost(problem, x)
    rows = [row for s in steps for row in s.trace.rows]
    exit_code = _REASON_EXIT.get(reason, EXIT_OK)
    test_mse = mean_squared_error(x, test) if test is not None else None

    if args.trace:
        # str of a Python float is its repr, the shortest round-tripping form
        trace_rows = [
            {"iter": k, "cost": float(row.cost), "grad_norm": float(row.grad_norm),
             "step": float(row.step), "backtracks": row.backtracks,
             "reset": int(row.reset),
             "time_s": 0.0 if args.deterministic else float(row.time_s)}
            for k, row in enumerate(rows, start=1)]
        _atomic_write(args.trace, lambda fh: _write_rows_csv(
            fh, TRACE_HEADER.split(","), trace_rows))
    if args.report:
        result = {
            "reason": reason,
            "exit_code": exit_code,
            "iterations": len(rows),
            "final_cost": final_cost,
            "final_rank": x.r,
            "validation_mse": val_mse,
            "test_mse": test_mse,
            "sparse_flops": sparse_flops,
            "time_s": elapsed,
        }
        if args.rank_updates is not None:
            result["ranks"] = [
                {
                    "rank": s.rank,
                    "iterations": s.trace.iterations,
                    "final_cost": s.trace.final_cost,
                    "validation_mse": s.validation_mse,
                }
                for s in steps
            ]
        report = {
            "format_version": 1,
            "command": "complete",
            "config": {
                "data": args.data,
                "rank": rank,
                "rank_updates": args.rank_updates,
                "warm_start_cols": args.warm_start_cols,
                "val": args.val,
                "test": args.test,
                "seed": args.seed,
                "deterministic": bool(args.deterministic),
                "solver": asdict(config),
            },
            "problem": {
                "n": problem.n,
                "m": problem.m,
                "observed": problem.entries.count,
                "oversampling": problem.oversampling,
            },
            "result": result,
        }
        _atomic_write(args.report, lambda fh: json.dump(
            _strict_json(report), fh, indent=2, sort_keys=True, allow_nan=False))
    if args.solution_prefix:
        for name, mat in (("U", x.U), ("R", x.R), ("V", x.V)):
            _atomic_write(
                "%s_%s.mtx" % (args.solution_prefix, name),
                lambda fh, mat=mat: write_dense_matrix_market(fh, mat),
            )
    line = "reason=%s iterations=%d final_cost=%.6e rank=%d" % (
        reason, len(rows), final_cost, x.r,
    )
    if val_mse is not None:
        line += " val_mse=%.6e" % val_mse
    if test_mse is not None:
        line += " test_mse=%.6e" % test_mse
    print(line)
    return exit_code


def _bench_synth_cell(params):
    """Generate, solve from a random point, compare to the ground truth."""
    problem, (left, right) = synthesize(params["spec"], params["seed"])
    t0 = time.perf_counter()
    # synthesize draws from the streams seed and seed + 1; a start on the
    # seed stream would span the generating left factor's column space
    x0 = random_point(problem.n, problem.m, problem.rank, params["seed"] + 2**32)
    x, trace = cg_solve(problem, x0, params["config"])
    diff = x.matrix() - left @ right
    return trace, {"mse": float((diff * diff).mean()),
                   "time_s": time.perf_counter() - t0}


def _bench_movielens_cell(params):
    """Split, solve with early stopping, score the held-out parts."""
    train, val, test = split_train_val_test(
        params["entries"], params["fractions"], params["seed"]
    )
    t0 = time.perf_counter()
    problem = CompletionProblem(train, params["rank"])
    x0 = random_point(problem.n, problem.m, problem.rank, params["seed"])
    step = early_stopped_solve(problem, x0, params["config"], val if val.count else None)
    scores = {} if step.validation_mse is None else {"val_mse": step.validation_mse}
    if test.count:
        scores["test_mse"] = mean_squared_error(step.point, test)
    scores["time_s"] = time.perf_counter() - t0
    return step.trace, scores


_RUN_DEFAULTS = {"iterations": 0, "reason": "", "time_s": 0.0, "error": ""}


def _bench_run(cell, header, params):
    """One sweep task as a row of ``header``: the task's own columns, then
    the trace's and the scores ``cell(params)`` returns; columns nothing
    fills are nan.  Any failure lands in the row's error column, so the
    sweep never dies on a single run."""
    row = {key: params.get(key, _RUN_DEFAULTS.get(key, float("nan")))
           for key in header}
    try:
        trace, scores = cell(params)
        row.update(scores, iterations=trace.iterations, final_cost=trace.final_cost,
                   reason=trace.reason)
        if params["deterministic"]:
            row["time_s"] = 0.0
    except Exception as exc:
        row["error"] = "%s: %s" % (type(exc).__name__, exc)
    return row


def _run_tasks(worker, tasks, jobs):
    if jobs <= 1:
        return [worker(t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


def _aggregate(values):
    good = [v for v in values if v == v]
    if not good:
        return float("nan"), float("nan")
    dev = statistics.stdev(good) if len(good) > 1 else 0.0
    return statistics.fmean(good), dev


def _summarize(rows, constants, axes, count_column, summarized):
    """One summary row per point of the sweep grid, in task order: the
    constant columns, the axis values, the run count, the failed-run
    count, and the mean and standard deviation of each (column, label)
    pair over the runs that did not fail."""
    summary = []
    for point in itertools.product(*axes.values()):
        group = [r for r in rows if tuple(r[a] for a in axes) == point]
        ok = [r for r in group if not r["error"]]
        row = dict(constants, **dict(zip(axes, point)))
        row[count_column] = len(group)
        row["failures"] = len(group) - len(ok)
        for column, label in summarized:
            row[label + "_mean"], row[label + "_std"] = _aggregate(
                [r[column] for r in ok])
        summary.append(row)
    return summary


def _write_rows_csv(fh, header, rows):
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(str(row[key]) for key in header) + "\n")


def cmd_bench(args):
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    common = {"config": _solver_config(args), "deterministic": args.deterministic}
    # each protocol checks its values before any run and supplies its cell, run
    # columns, constant columns, sweep axes, specs, seeds, count column and
    # summarized (column, label) pairs
    if args.movielens:
        if args.ranks is None:
            raise ConfigError("--movielens needs --ranks")
        axes = {"rank": _distinct("--ranks", _int_list(args.ranks))}
        common["fractions"] = check_fractions(_float_list(args.fractions))
        seeds = _int_list(args.seeds or "")
        if not seeds:
            raise ConfigError("--movielens needs --seeds")
        seeds = _distinct("--seeds", seeds)
        if len(seeds) > 1:
            raise ConfigError("--movielens takes one --seeds value; the splits "
                              "count up from it")
        if args.splits < 1:
            raise ConfigError("--splits must be at least 1")
        seeds = range(seeds[0], seeds[0] + args.splits)
        entries = common["entries"] = to_entries(parse_movielens(args.movielens))
        for rank in axes["rank"]:
            CompletionProblem(entries, rank)  # raises unless the rank fits the grid
        specs = {}
        cell, constants, count_column = _bench_movielens_cell, {}, "splits"
        run_header = ["rank", "seed", "iterations", "final_cost", "val_mse",
                      "test_mse", "reason", "time_s", "error"]
        summarized = (("test_mse", "test_mse"), ("final_cost", "final_cost"),
                      ("time_s", "time"))
    else:
        for flag, value in (("--n", args.n), ("--m", args.m),
                            ("--ranks", args.ranks), ("--os", args.os),
                            ("--seeds", args.seeds)):
            if value is None:
                raise ConfigError("bench needs %s" % flag)
        cns = [None] if args.cn is None else _distinct("--cn", _float_list(args.cn))
        axes = {"rank": _distinct("--ranks", _int_list(args.ranks)),
                "os": _distinct("--os", _float_list(args.os)), "cn": cns}
        specs = {point: SyntheticSpec(args.n, args.m, *point)
                 for point in itertools.product(*axes.values())}
        seeds = _distinct("--seeds", _int_list(args.seeds))
        constants = {"n": args.n, "m": args.m}
        common.update(constants)
        cell, count_column = _bench_synth_cell, "seeds"
        run_header = ["n", "m", "rank", "os", "cn", "seed", "iterations",
                      "final_cost", "mse", "reason", "time_s", "error"]
        summarized = (("final_cost", "final_cost"), ("mse", "mse"),
                      ("time_s", "time"))

    tasks = [dict(common, **dict(zip(axes, point)), seed=seed, spec=specs.get(point))
             for point in itertools.product(*axes.values()) for seed in seeds]
    rows = _run_tasks(functools.partial(_bench_run, cell, run_header), tasks, args.jobs)
    summary = _summarize(rows, constants, axes, count_column, summarized)
    summary_header = list(constants) + list(axes) + [count_column, "failures"] + [
        label + stat for _, label in summarized for stat in ("_mean", "_std")]
    out_dir = Path(args.out_dir)
    _atomic_write(out_dir / "runs.csv",
                  lambda fh: _write_rows_csv(fh, run_header, rows))
    _atomic_write(out_dir / "summary.csv",
                  lambda fh: _write_rows_csv(fh, summary_header, summary))
    failures = sum(1 for r in rows if r["error"])
    print(
        "wrote %s and %s (%d runs, %d failed)"
        % (out_dir / "runs.csv", out_dir / "summary.csv", len(rows), failures)
    )
    return EXIT_OK


def cmd_movielens_prep(args):
    # checked before the parse, so a bad list fails before any work
    fractions = check_fractions(_float_list(args.fractions))
    dataset = parse_movielens(args.ratings)
    entries = to_entries(dataset)
    train, val, test = split_train_val_test(entries, fractions, args.seed)
    out_dir = Path(args.out_dir)
    names = (("train", train), ("val", val), ("test", test))
    for name, part in names:
        path = out_dir / ("%s.mtx" % name)
        if part.count:
            _atomic_write(path, lambda fh, part=part: write_matrix_market(fh, part))
        else:
            # a file left by an earlier run would pass for this run's part
            path.unlink(missing_ok=True)
    meta = {
        "format_version": 1,
        "users": dataset.n_users,
        "items": dataset.n_items,
        "user_id_range": dataset.user_id_range,
        "item_id_range": dataset.item_id_range,
        "ratings": dataset.count,
        "fractions": list(fractions),
        "seed": args.seed,
        "splits": {name: part.count for name, part in names},
    }
    _atomic_write(
        out_dir / "meta.json", lambda fh: json.dump(meta, fh, indent=2, sort_keys=True)
    )
    print(
        "wrote splits to %s: %d ratings, %d x %d grid"
        % (out_dir, dataset.count, dataset.n_users, dataset.n_items)
    )
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="r3mc",
        description="Fixed-rank matrix completion by Riemannian conjugate gradient.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic problem")
    p.add_argument("--n", type=int, required=True, help="rows")
    p.add_argument("--m", type=int, required=True, help="columns")
    p.add_argument("--rank", type=int, required=True, help="ground-truth rank")
    p.add_argument("--os", type=float, required=True,
                   help="observed entries per degree of freedom")
    p.add_argument("--cn", type=float,
                   help="condition number (default: gaussian factors)")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--out", required=True,
                   help="output directory for entries.mtx, left.mtx, right.mtx")
    p.add_argument("--force", action="store_true",
                   help="allow oversampling at or below one")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("complete", help="solve a completion problem")
    p.add_argument("--data", required=True, help="Matrix Market coordinate file")
    p.add_argument("--rank", type=int, help="target rank")
    p.add_argument("--rank-updates", type=int,
                   help="grow the rank from one up to this maximum")
    p.add_argument("--warm-start-cols", type=int,
                   help="warm start from this many completed columns")
    p.add_argument("--val",
                   help="validation entries (Matrix Market) for early stopping")
    p.add_argument("--test",
                   help="held-out entries (Matrix Market) to score at the end")
    p.add_argument("--seed", type=int, required=True, help="initialization seed")
    _add_solver_options(p)
    p.add_argument("--trace", help="write per-iteration CSV here")
    p.add_argument("--report", help="write a JSON run report here")
    p.add_argument("--solution-prefix",
                   help="write solution factors to PREFIX_U/R/V.mtx")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("bench", help="sweep configurations with statistics")
    p.add_argument("--n", type=int, help="rows (synthetic sweep)")
    p.add_argument("--m", type=int, help="columns (synthetic sweep)")
    p.add_argument("--ranks", help="comma-separated rank list")
    p.add_argument("--os", help="comma-separated oversampling list")
    p.add_argument("--cn",
                   help="comma-separated condition number list (default: gaussian)")
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--movielens",
                   help="ratings file; switches to the split-protocol sweep")
    p.add_argument("--splits", type=int, default=10,
                   help="partition count per rank for --movielens")
    p.add_argument("--fractions", default="0.8,0.1,0.1",
                   help="train,val,test fractions for --movielens")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    _add_solver_options(p)
    p.add_argument("--out-dir", required=True,
                   help="directory for runs.csv and summary.csv")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("movielens-prep",
                       help="convert ratings to Matrix Market splits")
    p.add_argument("--ratings", required=True,
                   help="ratings file (UserID::MovieID::Rating::Timestamp)")
    p.add_argument("--out-dir", required=True, help="directory for train/val/test.mtx")
    p.add_argument("--seed", type=int, required=True, help="split seed")
    p.add_argument("--fractions", default="0.8,0.1,0.1",
                   help="train,val,test fractions")
    p.set_defaults(func=cmd_movielens_prep)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print("warning: %s" % message, file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # warnings print as one line, like synth's, without the source
        # location; the warning filters (-W error too) still apply
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return args.func(args)
    except (ConfigError, ContractViolationError, DegenerateDirectionError,
            DimensionError, MemoryError, OSError, ParseError, SingularMatrixError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
