"""End-to-end command line behavior using in-process invocations."""

import csv
import json
import statistics
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from r3mc import (
    CompletionProblem,
    CounterRng,
    ObservedEntries,
    SingularMatrixError,
    SolverConfig,
    SyntheticSpec,
    ValidationMonitor,
    cg_solve,
    masked_values,
    mean_squared_error,
    op_count,
    random_point,
    read_dense_matrix_market,
    read_matrix_market,
    reset_op_count,
    sample_mask,
    split_train_val_test,
    synthesize,
    write_matrix_market,
)
from r3mc import cli, solver
from r3mc import problem as problem_module
from r3mc.cli import TRACE_HEADER, main

SYNTH_RUNS_HEADER = "n,m,rank,os,cn,seed,iterations,final_cost,mse,reason,time_s,error"
SYNTH_SUMMARY_HEADER = ("n,m,rank,os,cn,seeds,failures,final_cost_mean,final_cost_std,"
                        "mse_mean,mse_std,time_mean,time_std")
RATINGS_RUNS_HEADER = "rank,seed,iterations,final_cost,val_mse,test_mse,reason,time_s,error"
RATINGS_SUMMARY_HEADER = ("rank,splits,failures,test_mse_mean,test_mse_std,"
                          "final_cost_mean,final_cost_std,time_mean,time_std")


def run_cli(*argv):
    return main(list(argv))


def read_csv(path, header):
    """Rows of a bench CSV whose first line must be exactly ``header``."""
    with open(path) as fh:
        assert fh.readline() == header + "\n"
        fh.seek(0)
        return list(csv.DictReader(fh))


def check_summary(runs, summary, axes, labels):
    """Every _mean and _std cell equals fmean and stdev of its group's
    error-free runs (nan for a group where every run failed)."""
    assert len(summary) == len({tuple(r[a] for a in axes) for r in runs})
    for group in summary:
        ok = [r for r in runs if all(r[a] == group[a] for a in axes) and not r["error"]]
        for column, label in labels:
            values = [float(r[column]) for r in ok]
            assert all(v == v for v in values)
            if not values:
                assert (group[label + "_mean"], group[label + "_std"]) == ("nan", "nan")
                continue
            dev = statistics.stdev(values) if len(values) > 1 else 0.0
            assert float(group[label + "_mean"]) == statistics.fmean(values)
            assert float(group[label + "_std"]) == dev


def write_problem(tmp_path, n=40, m=40, rank=2, ratio=4.0, seed=0, name="entries.mtx"):
    problem, _ = synthesize(SyntheticSpec(n, m, rank, ratio), seed)
    path = tmp_path / name
    write_matrix_market(path, problem.entries)
    return path, problem


def write_ratings(tmp_path, n_users=15, n_items=12, count=120, name="ratings.dat"):
    from r3mc.data_io import sample_mask

    rows, cols = sample_mask(n_users, n_items, count, 17)
    lines = [
        "%d::%d::%s::%d\n" % (u + 1, i + 1, 1.0 + (k % 9) / 2.0, 1000 + k)
        for k, (u, i) in enumerate(zip(rows, cols))
    ]
    path = tmp_path / name
    path.write_text("".join(lines), encoding="utf-8")
    return path


def test_synth_writes_the_three_files_with_exact_count(tmp_path, capsys):
    out = tmp_path / "gen"
    code = run_cli(
        "synth", "--n", "50", "--m", "50", "--rank", "5", "--os", "4",
        "--seed", "1", "--out", str(out),
    )
    assert code == 0
    entries = read_matrix_market(out / "entries.mtx")
    left = read_dense_matrix_market(out / "left.mtx")
    right = read_dense_matrix_market(out / "right.mtx")
    # 4 observations per degree of freedom: 4 * 5 * (50 + 50 - 5)
    assert entries.count == 1900
    assert left.shape == (50, 5) and right.shape == (5, 50)
    dense = left @ right
    assert np.allclose(entries.vals, dense[entries.rows, entries.cols], atol=1e-12)
    assert "1900 entries" in capsys.readouterr().out


def test_synth_rejects_low_oversampling_unless_forced(tmp_path, capsys):
    out = tmp_path / "low"
    args = ["synth", "--n", "30", "--m", "30", "--rank", "2", "--os", "0.5",
            "--seed", "1", "--out", str(out)]
    assert run_cli(*args) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "--force" in captured.err
    assert not (out / "entries.mtx").exists()
    assert run_cli(*args, "--force") == 0
    captured = capsys.readouterr()
    assert "warning:" in captured.err
    assert (out / "entries.mtx").exists()


def test_synth_rejects_an_oversampling_that_gives_no_entries(tmp_path, capsys):
    out = tmp_path / "none"
    assert run_cli("synth", "--n", "10", "--m", "10", "--rank", "1", "--os", "0.01",
                   "--seed", "0", "--out", str(out), "--force") == 2
    err = capsys.readouterr().err
    assert err.endswith(
        "error: oversampling 0.01 gives no entries on the 10 x 10 grid at rank 1\n")
    assert not out.exists()


def test_complete_solves_and_reports(tmp_path, capsys):
    data, problem = write_problem(tmp_path)
    report = tmp_path / "report.json"
    trace = tmp_path / "trace.csv"
    code = run_cli(
        "complete", "--data", str(data), "--rank", "2", "--seed", "3",
        "--report", str(report), "--trace", str(trace), "--deterministic",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "reason=" in out and "final_cost=" in out

    doc = json.loads(report.read_text())
    assert doc["format_version"] == 1
    assert doc["command"] == "complete"
    assert doc["config"]["rank"] == 2 and doc["config"]["seed"] == 3
    assert doc["config"]["solver"]["max_iterations"] == 500
    assert doc["config"]["solver"].keys() == asdict(SolverConfig()).keys()
    assert doc["problem"]["n"] == 40 and doc["problem"]["observed"] == problem.entries.count
    assert doc["result"]["exit_code"] == 0
    assert doc["result"]["final_cost"] <= 1e-12
    assert doc["result"]["final_rank"] == 2
    assert doc["result"]["time_s"] == 0.0
    assert doc["result"]["sparse_flops"] > 0

    lines = trace.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) - 1 == doc["result"]["iterations"]
    costs = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    assert all(line.split(",")[-1] == "0.0" for line in lines[1:])


def test_complete_writes_solution_factors(tmp_path):
    data, _ = write_problem(tmp_path)
    prefix = tmp_path / "sol"
    assert run_cli(
        "complete", "--data", str(data), "--rank", "2", "--seed", "3",
        "--solution-prefix", str(prefix),
    ) == 0
    u = read_dense_matrix_market(str(prefix) + "_U.mtx")
    r = read_dense_matrix_market(str(prefix) + "_R.mtx")
    v = read_dense_matrix_market(str(prefix) + "_V.mtx")
    assert u.shape == (40, 2) and r.shape == (2, 2) and v.shape == (40, 2)
    assert np.allclose(u.T @ u, np.eye(2), atol=1e-10)
    entries = read_matrix_market(data)
    model = u @ r @ v.T
    errs = model[entries.rows, entries.cols] - entries.vals
    assert float(errs @ errs) / entries.count <= 1e-12


def test_complete_requires_a_rank(tmp_path, capsys):
    data, _ = write_problem(tmp_path)
    assert run_cli("complete", "--data", str(data), "--seed", "0") == 2
    assert "error:" in capsys.readouterr().err


def test_complete_rejects_bad_solver_config(tmp_path, capsys):
    data, _ = write_problem(tmp_path)
    code = run_cli("complete", "--data", str(data), "--rank", "2",
                   "--seed", "0", "--max-iters", "0")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_complete_exhausted_budget_exits_three(tmp_path):
    data, _ = write_problem(tmp_path)
    code = run_cli("complete", "--data", str(data), "--rank", "2",
                   "--seed", "0", "--max-iters", "2")
    assert code == 3


@pytest.mark.parametrize("seed", ["0", "1", "6"])
def test_complete_on_one_outlying_value_ends_in_a_stall(tmp_path, capsys, seed):
    # the trials toward the outlier shrink R RT below what the gradient's
    # eigensolve resolves; the retraction refuses them, so the line
    # search runs out instead of the next gradient failing
    out = tmp_path / "gen"
    assert run_cli("synth", "--n", "12", "--m", "10", "--rank", "2", "--os", "3",
                   "--seed", "3", "--out", str(out)) == 0
    e = read_matrix_market(out / "entries.mtx")
    vals = e.vals.copy()
    vals[0] = 2.0**62
    data = tmp_path / "outlier.mtx"
    write_matrix_market(data, ObservedEntries(e.n, e.m, e.rows, e.cols, vals))
    capsys.readouterr()
    report = tmp_path / "report.json"
    code = run_cli("complete", "--data", str(data), "--rank", "2", "--seed", seed,
                   "--report", str(report))
    assert code == 4
    assert "not positive definite" not in capsys.readouterr().err
    assert json.loads(report.read_text())["result"]["reason"] == "line_search_stall"


def write_scaled(tmp_path, k):
    """The 20 x 15 rank-2 ``synth --os 3 --seed 1`` file with every value
    multiplied by 10**k."""
    out = tmp_path / "gen"
    assert run_cli("synth", "--n", "20", "--m", "15", "--rank", "2", "--os", "3",
                   "--seed", "1", "--out", str(out)) == 0
    e = read_matrix_market(out / "entries.mtx")
    data = tmp_path / "scaled.mtx"
    write_matrix_market(data, ObservedEntries(e.n, e.m, e.rows, e.cols, e.vals * 10.0**k))
    return data


def strict_json(text):
    def refuse(token):
        raise ValueError("%s is not a JSON number" % token)

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("k, argv, code, reason, iterations, rank", [
    # the products of the horizontality conditions would overflow here if
    # they were formed unscaled
    (60, ["--rank", "2", "--seed", "1"], 0, "gradient_tolerance", None, 2),
    # the metric's solves form no power of sigma(R) above the second, so
    # the transported CG directions hold here and far above
    (62, ["--rank", "2", "--seed", "1"], 0, "gradient_tolerance", None, 2),
    (100, ["--rank", "2", "--seed", "1"], 0, "gradient_tolerance", None, 2),
    # the squared error stays finite, but the gradient's squared norm,
    # which grows like sigma(R)^2 |dU|^2, overflows on the way
    (153, ["--rank", "2", "--seed", "1"], 5, "non_finite", None, 2),
    # the cost overflows at the start
    (154, ["--rank", "2", "--seed", "1"], 5, "non_finite", 0, 2),
    # from a warm start too, whose R is as large as the data
    (154, ["--rank", "2", "--warm-start-cols", "5", "--seed", "2"], 5, "non_finite", 0, 2),
    (100, ["--rank-updates", "2", "--seed", "1"], 0, "gradient_tolerance", None, 2),
    # the homotopy's first rank overflows, and it grows no further
    (154, ["--rank-updates", "2", "--seed", "1"], 5, "non_finite", 0, 1),
    # so far above that the rank-one start's power iteration would overflow
    # if it ran on the unscaled residual
    (156, ["--rank-updates", "2", "--seed", "1"], 5, "non_finite", 0, 1),
    (300, ["--rank-updates", "2", "--seed", "1"], 5, "non_finite", 0, 1),
], ids=["1e60", "1e62", "1e100", "1e153", "1e154", "1e154-warm-start", "1e100-homotopy",
        "1e154-homotopy", "1e156-homotopy", "1e300-homotopy"])
def test_complete_on_values_whose_products_overflow(tmp_path, capsys, k, argv, code,
                                                    reason, iterations, rank):
    # values whose squares pass the float range overflow the cost or the
    # gradient's norm; that ends the solve by name, with a report
    data = write_scaled(tmp_path, k)
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert run_cli("complete", "--data", str(data), *argv, "--report", str(report)) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err and "error:" not in err
    assert out.startswith("reason=%s " % reason)
    result = strict_json(report.read_text())["result"]
    assert (result["reason"], result["exit_code"], result["final_rank"]) == (
        reason, code, rank)
    if iterations is not None:
        assert result["iterations"] == iterations
    # JSON has no infinite number: an overflowed cost is written as null
    assert (result["final_cost"] is None) == (k >= 154)


def test_reports_write_each_non_finite_number_as_null():
    report = {"a": [1.5, float("nan"), {"b": float("inf")}], "c": -float("inf"),
              "d": 3, "e": None, "f": "inf", "g": np.float64(np.inf), "h": 2.0**-1074}
    assert cli._strict_json(report) == {
        "a": [1.5, None, {"b": None}], "c": None, "d": 3, "e": None, "f": "inf",
        "g": None, "h": 2.0**-1074}


def test_complete_homotopy_reports_per_rank_results(tmp_path, capsys):
    problem, _ = synthesize(SyntheticSpec(30, 30, 2, 5.0), 4)
    train, val, test = split_train_val_test(problem.entries, (0.8, 0.1, 0.1), 5)
    for name, part in (("train", train), ("val", val), ("test", test)):
        write_matrix_market(tmp_path / ("%s.mtx" % name), part)
    report = tmp_path / "homotopy.json"
    code = run_cli(
        "complete", "--data", str(tmp_path / "train.mtx"),
        "--val", str(tmp_path / "val.mtx"), "--test", str(tmp_path / "test.mtx"),
        "--rank-updates", "4", "--seed", "6", "--report", str(report),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "val_mse=" in out and "test_mse=" in out
    doc = json.loads(report.read_text())
    ranks = doc["result"]["ranks"]
    assert [r["rank"] for r in ranks] == list(range(1, len(ranks) + 1))
    assert len(ranks) >= 2
    assert all(r["validation_mse"] is not None for r in ranks)
    assert doc["result"]["validation_mse"] is not None
    assert doc["result"]["test_mse"] is not None


def test_complete_homotopy_names_the_cost_plateau(tmp_path, capsys):
    # no rank-one point fits rank-two data, so the homotopy's one rank
    # ends on the cost plateau, a stop that counts as solved
    data, _ = write_problem(tmp_path, n=30, m=30, rank=2, ratio=5.0, seed=1)
    report = tmp_path / "plateau.json"
    code = run_cli("complete", "--data", str(data), "--rank-updates", "1",
                   "--seed", "6", "--report", str(report))
    assert code == 0
    result = json.loads(report.read_text())["result"]
    assert (result["reason"], result["exit_code"]) == ("cost_plateau", 0)
    assert capsys.readouterr().out.startswith("reason=cost_plateau ")


def test_complete_warm_start_option(tmp_path):
    data, _ = write_problem(tmp_path, n=30, m=60, rank=2, ratio=5.0, seed=7)
    report = tmp_path / "warm.json"
    code = run_cli(
        "complete", "--data", str(data), "--rank", "2", "--seed", "8",
        "--warm-start-cols", "40", "--report", str(report),
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["result"]["final_cost"] <= 1e-12
    assert doc["config"]["warm_start_cols"] == 40


def test_complete_prints_each_warning_as_one_line(tmp_path, capsys):
    data, _ = write_problem(tmp_path, n=30, m=30, rank=2, ratio=4.0, seed=5)
    argv = ("complete", "--data", str(data), "--rank", "2", "--seed", "6",
            "--warm-start-cols", "2")
    shown = warnings.showwarning
    assert run_cli(*argv) == 0
    err = capsys.readouterr().err
    assert err == ("warning: truncated problem is undersampled (ratio 0.250); "
                   "the warm start may be poor\n")
    assert ".py" not in err
    assert warnings.showwarning is shown
    # the warning filters still apply: an error filter raises the warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="undersampled"):
            run_cli(*argv)


def test_complete_rejects_exclusive_strategies(tmp_path, capsys):
    data, _ = write_problem(tmp_path)
    code = run_cli("complete", "--data", str(data), "--rank-updates", "3",
                   "--warm-start-cols", "10", "--seed", "0")
    assert code == 2
    assert "exclusive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--rank", "11"], "rank 11 must lie in [1, 10] on the 12 x 10 grid"),
    (["--rank-updates", "11"], "rank 11 must lie in [1, 10] on the 12 x 10 grid"),
    (["--rank", "2", "--warm-start-cols", "20"],
     "warm-start columns p = 20 must lie in [rank, max(n, m)] = [2, 12] on the 12 x 10 grid"),
    (["--rank", "2", "--warm-start-cols", "1"],
     "warm-start columns p = 1 must lie in [rank, max(n, m)] = [2, 12] on the 12 x 10 grid"),
])
def test_complete_range_errors_name_their_values(tmp_path, capsys, argv, message):
    data, _ = write_problem(tmp_path, n=12, m=10, ratio=2.0)
    assert run_cli("complete", "--data", str(data), "--seed", "0", *argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_complete_rejects_mismatched_validation_grid(tmp_path, capsys):
    data, _ = write_problem(tmp_path)
    other, _ = write_problem(tmp_path, n=20, m=20, seed=9, name="other.mtx")
    code = run_cli("complete", "--data", str(data), "--rank", "2",
                   "--seed", "0", "--val", str(other))
    assert code == 2
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["complete", "--test", "other.mtx"],
     "test grid 20 x 20 does not match the data grid 40 x 40"),
    (["bench", "--movielens", "ratings.dat", "--seeds", "7"], "--movielens needs --ranks"),
    (["bench", "--n", "20", "--m", "20", "--ranks", "a,b", "--os", "3", "--seeds", "0"],
     "expected a comma-separated integer list, got 'a,b'"),
    (["bench", "--n", "20", "--m", "20", "--ranks", "2", "--os", "x", "--seeds", "0"],
     "expected a comma-separated number list, got 'x'"),
])
def test_usage_errors_print_one_line(tmp_path, capsys, monkeypatch, argv, message):
    write_problem(tmp_path)
    write_problem(tmp_path, n=20, m=20, seed=9, name="other.mtx")
    write_ratings(tmp_path)
    monkeypatch.chdir(tmp_path)
    if argv[0] == "complete":
        argv = argv + ["--data", "entries.mtx", "--rank", "2", "--seed", "0",
                       "--report", "out/report.json"]
    else:
        argv = argv + ["--out-dir", "out"]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not (tmp_path / "out").exists()


def test_a_failed_report_write_leaves_no_temporary_file(tmp_path, capsys, monkeypatch):
    write_problem(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rep").mkdir()  # the report cannot replace a directory
    assert run_cli("complete", "--data", "entries.mtx", "--rank", "2", "--seed", "1",
                   "--max-iters", "3", "--report", "rep") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["entries.mtx", "rep"]
    assert list((tmp_path / "rep").iterdir()) == []


def test_atomic_write_removes_its_temporary_file_when_the_body_raises(tmp_path):
    def failing(fh):
        fh.write("partial")
        raise RuntimeError("body failed")

    path = tmp_path / "out.txt"
    with pytest.raises(RuntimeError, match="body failed"):
        cli._atomic_write(path, failing)
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"earlier\n")
    with pytest.raises(RuntimeError, match="body failed"):
        cli._atomic_write(path, failing)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == b"earlier\n"


def test_complete_val_returns_the_best_validation_iterate(tmp_path):
    # rank 5 on noisy rank-2 data overfits, so validation error turns up
    # and the solve stops five rises after its best iterate
    x_true = random_point(30, 30, 2, 0)
    rows, cols = sample_mask(30, 30, 450, 1)
    probe = ObservedEntries(30, 30, rows, cols, np.zeros(450))
    vals = masked_values(x_true, probe) + 0.05 * CounterRng(2).standard_normal(450)
    train = ObservedEntries(30, 30, rows[:360], cols[:360], vals[:360])
    val = ObservedEntries(30, 30, rows[360:], cols[360:], vals[360:])
    write_matrix_market(tmp_path / "train.mtx", train)
    write_matrix_market(tmp_path / "val.mtx", val)
    report = tmp_path / "report.json"
    code = run_cli("complete", "--data", str(tmp_path / "train.mtx"), "--rank", "5",
                   "--val", str(tmp_path / "val.mtx"), "--seed", "3",
                   "--report", str(report))
    assert code == 0
    result = json.loads(report.read_text())["result"]
    assert result["reason"] == "validation_rise"

    # replay the same iterates and score each one on the validation set
    history = []

    def record(trace, x):
        history.append(mean_squared_error(x, val))

    cg_solve(CompletionProblem(train, 5), random_point(30, 30, 5, 3),
             SolverConfig(max_iterations=result["iterations"]), (record,))
    assert len(history) == result["iterations"]
    assert min(history) < history[-1]
    assert result["validation_mse"] == min(history)


def test_complete_report_counts_only_the_solves_sparse_work(tmp_path):
    # the validation and test scores and the final cost are evaluated after
    # the solve; sparse_flops must not include them
    x_true = random_point(40, 30, 3, 0)
    rows, cols = sample_mask(40, 30, 600, 1)
    vals = masked_values(x_true, ObservedEntries(40, 30, rows, cols, np.zeros(600)))
    for name, part in (("train", slice(0, 480)), ("val", slice(480, 540)),
                       ("test", slice(540, 600))):
        write_matrix_market(tmp_path / (name + ".mtx"),
                            ObservedEntries(40, 30, rows[part], cols[part], vals[part]))
    report = tmp_path / "report.json"
    code = run_cli("complete", "--data", str(tmp_path / "train.mtx"), "--rank", "3",
                   "--val", str(tmp_path / "val.mtx"), "--test", str(tmp_path / "test.mtx"),
                   "--seed", "4", "--max-iters", "60", "--report", str(report))
    assert code in (0, 3)
    result = json.loads(report.read_text())["result"]

    train = read_matrix_market(tmp_path / "train.mtx")
    reset_op_count()
    monitor = ValidationMonitor(read_matrix_market(tmp_path / "val.mtx"))
    x, trace = cg_solve(CompletionProblem(train, 3), random_point(40, 30, 3, 4),
                        SolverConfig(max_iterations=60), (monitor,))
    monitor.best_point(x)
    assert trace.iterations == result["iterations"]
    assert result["sparse_flops"] == op_count()


def test_complete_val_scores_the_validation_set_once_per_accepted_iteration(
        tmp_path, monkeypatch):
    problem, _ = synthesize(SyntheticSpec(30, 30, 2, 5.0), 4)
    train, val, test = split_train_val_test(problem.entries, (0.7, 0.2, 0.1), 5)
    for name, part in (("train", train), ("val", val), ("test", test)):
        write_matrix_market(tmp_path / ("%s.mtx" % name), part)
    scored = []

    def counting(x, entries):
        if np.array_equal(entries.vals, val.vals):
            scored.append(x)
        return mean_squared_error(x, entries)

    monkeypatch.setattr(solver, "mean_squared_error", counting)
    monkeypatch.setattr(cli, "mean_squared_error", counting)
    report = tmp_path / "report.json"
    code = run_cli("complete", "--data", str(tmp_path / "train.mtx"), "--rank", "2",
                   "--val", str(tmp_path / "val.mtx"), "--test", str(tmp_path / "test.mtx"),
                   "--seed", "6", "--max-iters", "40", "--report", str(report))
    assert code in (0, 3)
    result = json.loads(report.read_text())["result"]
    assert result["iterations"] > 0
    assert len(scored) == result["iterations"]


def test_bench_synthetic_sweep_and_aggregates(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run_cli(
        "bench", "--n", "30", "--m", "30", "--ranks", "2", "--os", "3,4",
        "--seeds", "0,1,2", "--out-dir", str(out), "--deterministic",
    )
    assert code == 0
    assert "6 runs, 0 failed" in capsys.readouterr().out
    runs = read_csv(out / "runs.csv", SYNTH_RUNS_HEADER)
    assert len(runs) == 6
    assert {r["os"] for r in runs} == {"3.0", "4.0"}
    assert all(r["error"] == "" for r in runs)
    assert all(float(r["final_cost"]) <= 1e-10 for r in runs)
    assert all(r["time_s"] == "0.0" for r in runs)
    summary = read_csv(out / "summary.csv", SYNTH_SUMMARY_HEADER)
    assert len(summary) == 2
    assert all(g["seeds"] == "3" and g["failures"] == "0" for g in summary)
    check_summary(runs, summary, ("rank", "os", "cn"),
                  (("final_cost", "final_cost"), ("mse", "mse"), ("time_s", "time")))


def test_bench_isolates_per_run_failures(tmp_path, capsys, monkeypatch):
    # every value of the sweep is valid; the runs at one grid point raise
    real = cli.synthesize

    def failing(spec, seed):
        if spec.oversampling == 4.0:
            raise SingularMatrixError("forced failure")
        return real(spec, seed)

    monkeypatch.setattr(cli, "synthesize", failing)
    out = tmp_path / "partial"
    code = run_cli(
        "bench", "--n", "30", "--m", "30", "--ranks", "2", "--os", "3,4",
        "--seeds", "0,1", "--out-dir", str(out), "--deterministic",
    )
    assert code == 0
    assert "4 runs, 2 failed" in capsys.readouterr().out
    runs = read_csv(out / "runs.csv", SYNTH_RUNS_HEADER)
    bad = [r for r in runs if r["os"] == "4.0"]
    assert len(bad) == 2
    assert all(r["error"] == "SingularMatrixError: forced failure" for r in bad)
    rows = read_csv(out / "summary.csv", SYNTH_SUMMARY_HEADER)
    check_summary(runs, rows, ("rank", "os", "cn"),
                  (("final_cost", "final_cost"), ("mse", "mse"), ("time_s", "time")))
    summary = {row["os"]: row for row in rows}
    assert summary["4.0"]["failures"] == "2"
    assert summary["3.0"]["failures"] == "0"


@pytest.mark.parametrize("sweep, message", [
    (["--os", "nan"], "oversampling must be positive and finite"),
    (["--os", "3,40"], "oversampling 40 needs 3040 entries, grid has only 400"),
    (["--n", "10", "--m", "10", "--ranks", "1", "--os", "0.01"],
     "oversampling 0.01 gives no entries on the 10 x 10 grid at rank 1"),
    (["--ranks", "2,30"], "rank 30 must lie in [1, 20] on the 20 x 20 grid"),
    (["--cn", "10,0.5"], "condition number must be finite and at least 1"),
    (["--ranks", "1", "--cn", "5"],
     "a rank-one matrix cannot have condition number above 1"),
    # the ratings file is missing: the fractions are checked before it is read
    (["--movielens", "missing.dat", "--fractions", "nan,0.5,0.5"],
     "fractions must be three finite nonnegative numbers"),
    (["--movielens", "missing.dat", "--fractions", "0.5,0.5"],
     "fractions must be three finite nonnegative numbers"),
    (["--movielens", "missing.dat", "--fractions", "0.5,0.6,0.1"],
     "fractions must sum to one"),
    (["--movielens", "ratings.dat", "--ranks", "1,13"],
     "rank 13 must lie in [1, 12] on the 15 x 12 grid"),
    # a sweep that would run nothing
    (["--seeds", ""], "--seeds lists no value"),
    (["--ranks", ""], "--ranks lists no value"),
    (["--os", ","], "--os lists no value"),
    (["--cn", ""], "--cn lists no value"),
    (["--movielens", "ratings.dat", "--ranks", ""], "--ranks lists no value"),
    (["--jobs", "0"], "--jobs must be at least 1"),
    (["--jobs", "-4"], "--jobs must be at least 1"),
    (["--movielens", "ratings.dat", "--jobs", "-4"], "--jobs must be at least 1"),
])
def test_bench_rejects_an_invalid_sweep_before_any_run(tmp_path, capsys, monkeypatch,
                                                       sweep, message):
    write_ratings(tmp_path)
    monkeypatch.chdir(tmp_path)
    runs = []
    monkeypatch.setattr(cli, "_bench_run", lambda *args: runs.append(args))
    if sweep[0] == "--movielens":
        args = dict(zip(["--ranks", "--seeds", "--splits"], ["1", "7", "2"]))
    else:
        args = dict(zip(["--n", "--m", "--ranks", "--os", "--seeds"],
                        ["20", "20", "2", "3", "0,1"]))
    args.update(zip(sweep[::2], sweep[1::2]))
    argv = [a for kv in args.items() for a in kv]
    assert run_cli("bench", *argv, "--out-dir", "out") == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert runs == []
    assert not (tmp_path / "out").exists()


def test_bench_parallel_jobs_match_serial_bytes(tmp_path):
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    args = ["bench", "--n", "25", "--m", "25", "--ranks", "2", "--os", "3",
            "--seeds", "0,1,2,3", "--deterministic"]
    assert run_cli(*args, "--out-dir", str(serial)) == 0
    assert run_cli(*args, "--out-dir", str(parallel), "--jobs", "2") == 0
    assert (serial / "runs.csv").read_bytes() == (parallel / "runs.csv").read_bytes()
    assert (serial / "summary.csv").read_bytes() == (parallel / "summary.csv").read_bytes()


def test_bench_requires_sweep_parameters(tmp_path, capsys):
    assert run_cli("bench", "--out-dir", str(tmp_path / "x")) == 2
    assert "error:" in capsys.readouterr().err


def test_bench_movielens_protocol(tmp_path):
    ratings = write_ratings(tmp_path)
    out = tmp_path / "ml"
    code = run_cli(
        "bench", "--movielens", str(ratings), "--ranks", "1,2", "--splits", "2",
        "--seeds", "7", "--fractions", "0.6,0.2,0.2", "--out-dir", str(out),
        "--max-iters", "50", "--deterministic",
    )
    assert code == 0
    runs = read_csv(out / "runs.csv", RATINGS_RUNS_HEADER)
    assert len(runs) == 4
    assert [(r["rank"], r["seed"]) for r in runs] == [
        ("1", "7"), ("1", "8"), ("2", "7"), ("2", "8")
    ]
    assert all(r["error"] == "" for r in runs)
    assert all(float(r["val_mse"]) > 0 for r in runs)
    assert all(float(r["test_mse"]) > 0 for r in runs)
    summary = read_csv(out / "summary.csv", RATINGS_SUMMARY_HEADER)
    assert [row["rank"] for row in summary] == ["1", "2"]
    assert all(row["splits"] == "2" for row in summary)
    check_summary(runs, summary, ("rank",), (("test_mse", "test_mse"),
                  ("final_cost", "final_cost"), ("time_s", "time")))


@pytest.mark.parametrize("seeds", [None, "", ","])
def test_bench_movielens_needs_seeds(tmp_path, capsys, seeds):
    ratings = write_ratings(tmp_path)
    args = ["bench", "--movielens", str(ratings), "--ranks", "1",
            "--out-dir", str(tmp_path / "ml")]
    if seeds is not None:
        args += ["--seeds", seeds]
    assert run_cli(*args) == 2
    assert capsys.readouterr().err == "error: --movielens needs --seeds\n"


@pytest.mark.parametrize("option, values", [
    ("--ranks", "2,2"), ("--os", "3,3.0"), ("--cn", "10,10"), ("--seeds", "0,0"),
])
def test_bench_rejects_a_repeated_sweep_value(tmp_path, capsys, option, values):
    sweep = {"--ranks": "2", "--os": "3", "--seeds": "0", option: values}
    args = ["bench", "--n", "20", "--m", "20", "--out-dir", str(tmp_path / "x")]
    assert run_cli(*args, *[a for kv in sweep.items() for a in kv]) == 2
    assert capsys.readouterr().err == "error: %s lists a value twice\n" % option
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("option, values", [("--ranks", "1,1"), ("--seeds", "7,7")])
def test_bench_movielens_rejects_a_repeated_sweep_value(tmp_path, capsys, option,
                                                        values):
    sweep = {"--ranks": "1", "--seeds": "7", option: values}
    args = ["bench", "--movielens", str(write_ratings(tmp_path)),
            "--out-dir", str(tmp_path / "ml")]
    assert run_cli(*args, *[a for kv in sweep.items() for a in kv]) == 2
    assert capsys.readouterr().err == "error: %s lists a value twice\n" % option


@pytest.mark.parametrize("splits", ["0", "-3"])
def test_bench_movielens_needs_a_split(tmp_path, capsys, splits):
    ratings = write_ratings(tmp_path)
    code = run_cli("bench", "--movielens", str(ratings), "--ranks", "1",
                   "--seeds", "7", "--splits", splits,
                   "--out-dir", str(tmp_path / "ml"))
    assert code == 2
    assert capsys.readouterr().err == "error: --splits must be at least 1\n"
    assert not (tmp_path / "ml").exists()


def test_bench_movielens_takes_one_seed(tmp_path, capsys):
    # the splits' seeds count up from the one value; a second would be dropped
    ratings = write_ratings(tmp_path)
    code = run_cli("bench", "--movielens", str(ratings), "--ranks", "1",
                   "--seeds", "5,9", "--splits", "2", "--out-dir", str(tmp_path / "ml"))
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --movielens takes one --seeds value; the splits count up from it\n")
    assert not (tmp_path / "ml").exists()


def test_movielens_prep_writes_splits_and_meta(tmp_path):
    ratings = write_ratings(tmp_path)
    out = tmp_path / "prep"
    code = run_cli(
        "movielens-prep", "--ratings", str(ratings), "--out-dir", str(out),
        "--seed", "2", "--fractions", "0.8,0.1,0.1",
    )
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["users"] == 15 and meta["items"] == 12
    assert meta["ratings"] == 120
    assert meta["splits"] == {"train": 96, "val": 12, "test": 12}
    assert meta["fractions"] == [0.8, 0.1, 0.1]
    train = read_matrix_market(out / "train.mtx")
    val = read_matrix_market(out / "val.mtx")
    test = read_matrix_market(out / "test.mtx")
    assert (train.count, val.count, test.count) == (96, 12, 12)


def test_movielens_prep_reports_an_integer_beyond_64_bits(tmp_path, capsys):
    ratings = tmp_path / "ratings.dat"
    ratings.write_text("1::2::3::978300760\n1::3::4::99999999999999999999\n",
                       encoding="utf-8")
    out = tmp_path / "prep"
    code = run_cli("movielens-prep", "--ratings", str(ratings), "--out-dir", str(out),
                   "--seed", "0")
    assert code == 2
    assert capsys.readouterr().err == (
        "error: line 2: integer field outside the 64-bit range\n")
    assert not out.exists()


def test_movielens_prep_checks_the_fractions_before_reading_the_ratings(tmp_path, capsys):
    out = tmp_path / "prep"
    code = run_cli("movielens-prep", "--ratings", str(tmp_path / "missing.dat"),
                   "--out-dir", str(out), "--seed", "0", "--fractions", "0.5,0.5")
    assert code == 2
    assert capsys.readouterr().err == (
        "error: fractions must be three finite nonnegative numbers\n")
    assert not out.exists()


def test_movielens_prep_skips_empty_split_files(tmp_path):
    ratings = write_ratings(tmp_path)
    out = tmp_path / "prep_all_train"
    assert run_cli(
        "movielens-prep", "--ratings", str(ratings), "--out-dir", str(out),
        "--seed", "2", "--fractions", "1,0,0",
    ) == 0
    assert (out / "train.mtx").exists()
    assert not (out / "val.mtx").exists()
    assert not (out / "test.mtx").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["splits"] == {"train": 120, "val": 0, "test": 0}


def test_movielens_prep_removes_the_files_of_empty_parts(tmp_path):
    # a rerun into the same directory leaves no split file of an earlier
    # run, which --test would then have scored on training cells
    ratings = write_ratings(tmp_path)
    out = tmp_path / "prep"
    for seed, fractions in (("1", "0.8,0.1,0.1"), ("2", "1,0,0")):
        assert run_cli("movielens-prep", "--ratings", str(ratings), "--out-dir", str(out),
                       "--seed", seed, "--fractions", fractions) == 0
    assert sorted(p.name for p in out.iterdir()) == ["meta.json", "train.mtx"]
    assert read_matrix_market(out / "train.mtx").count == 120


def test_environment_does_not_configure_the_cli(tmp_path, monkeypatch, capsys):
    data, _ = write_problem(tmp_path)
    held_out, _ = write_problem(tmp_path, seed=9, name="held_out.mtx")
    # a variable named after another subcommand's option is not read
    monkeypatch.setenv("R3MC_MAX_ITERS", "plenty")
    assert run_cli("synth", "--n", "20", "--m", "20", "--rank", "2", "--os", "3",
                   "--seed", "1", "--out", str(tmp_path / "gen")) == 0
    # nor does a variable stand in for a required flag
    monkeypatch.setenv("R3MC_SEED", "3")
    with pytest.raises(SystemExit) as info:
        run_cli("complete", "--data", str(data), "--rank", "2")
    assert info.value.code == 2
    # nor add an output the arguments did not ask for
    monkeypatch.setenv("R3MC_TEST", str(held_out))
    report = tmp_path / "report.json"
    assert run_cli("complete", "--data", str(data), "--rank", "2", "--seed", "0",
                   "--report", str(report)) == 0
    assert json.loads(report.read_text())["result"]["test_mse"] is None
    capsys.readouterr()
    for command in ([], ["synth"], ["complete"], ["bench"], ["movielens-prep"]):
        with pytest.raises(SystemExit) as info:
            run_cli(*command, "--help")
        assert info.value.code == 0
        text = capsys.readouterr().out
        assert "usage: r3mc" in text
        assert "[env" not in text and "R3MC_" not in text


def write_empty(tmp_path):
    path = tmp_path / "empty.mtx"
    none = np.zeros(0, dtype=np.int64)
    write_matrix_market(path, ObservedEntries(40, 40, none, none, np.zeros(0)))
    return path


@pytest.mark.parametrize("mode", [["--rank", "2"], ["--rank-updates", "2"],
                                  ["--rank", "2", "--warm-start-cols", "20"]],
                         ids=["cold", "homotopy", "warm-start"])
@pytest.mark.parametrize("case, message", [
    ("overlap", "validation pattern overlaps the training pattern"),
    ("empty", "validation pattern is empty"),
    ("grid", "validation grid 20 x 20 does not match the data grid 40 x 40"),
])
def test_complete_validation_contract_is_the_same_in_every_mode(
        tmp_path, capsys, monkeypatch, mode, case, message):
    # the check comes before any solve, the warm start's included
    warm_starts = []
    monkeypatch.setattr(cli, "truncated_warm_start", lambda *a: warm_starts.append(a))
    data, _ = write_problem(tmp_path)
    val = {"overlap": lambda: data,
           "empty": lambda: write_empty(tmp_path),
           "grid": lambda: write_problem(tmp_path, n=20, m=20, seed=9,
                                         name="other.mtx")[0]}[case]()
    report = tmp_path / "report.json"
    code = run_cli("complete", "--data", str(data), "--val", str(val), "--seed", "0",
                   "--report", str(report), *mode)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""
    assert not report.exists() and not warm_starts


def test_complete_homotopy_on_all_zero_data_is_a_usage_error(tmp_path, capsys):
    rows, cols = sample_mask(20, 20, 120, 0)
    data = tmp_path / "zero.mtx"
    write_matrix_market(data, ObservedEntries(20, 20, rows, cols, np.zeros(120)))
    report = tmp_path / "report.json"
    code = run_cli("complete", "--data", str(data), "--rank-updates", "2", "--seed", "0",
                   "--report", str(report))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: every observed value of the data is zero; it has "
                            "no rank-one start\n")
    assert captured.out == "" and not report.exists()
    # a fixed-rank solve starts from a random point and fits the zeros
    assert run_cli("complete", "--data", str(data), "--rank", "2", "--seed", "0") == 0


def per_row_trace_csv(rows, deterministic):
    """Oracle: the trace file as the per-row formatter wrote it."""
    lines = [TRACE_HEADER + "\n"]
    for k, row in enumerate(rows, start=1):
        t = 0.0 if deterministic else row.time_s
        lines.append("%d,%s,%s,%s,%d,%d,%s\n" % (
            k, repr(float(row.cost)), repr(float(row.grad_norm)), repr(float(row.step)),
            row.backtracks, int(row.reset), repr(float(t))))
    return "".join(lines)


@pytest.mark.parametrize("mode", [("--rank", "2"),
                                  ("--rank-updates", "3", "--deterministic")])
def test_trace_file_matches_the_per_row_formatter(tmp_path, monkeypatch, mode):
    data, _ = write_problem(tmp_path)
    traces = []
    real = solver.cg_solve

    def recording(*args, **kwargs):
        x, trace = real(*args, **kwargs)
        traces.append(trace)
        return x, trace

    monkeypatch.setattr(solver, "cg_solve", recording)
    path = tmp_path / "trace.csv"
    code = run_cli("complete", "--data", str(data), *mode, "--seed", "3",
                   "--trace", str(path))
    assert code in (0, 3)
    rows = [row for trace in traces for row in trace.rows]
    assert len(rows) > 0
    assert path.read_text() == per_row_trace_csv(rows, "--deterministic" in mode)


@pytest.mark.parametrize("cn", [None, 100.0])
def test_bench_synthetic_starts_away_from_the_true_column_space(tmp_path, monkeypatch, cn):
    # the generator and the start drew from one stream, so the start's U
    # spanned the generating left factor's column space to rounding
    starts = []
    real = cli.cg_solve

    def recording(problem, x0, config):
        starts.append(x0)
        return real(problem, x0, config)

    monkeypatch.setattr(cli, "cg_solve", recording)
    argv = ["bench", "--n", "30", "--m", "30", "--ranks", "2", "--os", "4",
            "--seeds", "0,1", "--out-dir", str(tmp_path), "--deterministic"]
    if cn is not None:
        argv += ["--cn", str(cn)]
    assert run_cli(*argv) == 0
    assert len(starts) == 2
    for seed, x0 in zip((0, 1), starts):
        _, (left, _) = synthesize(SyntheticSpec(30, 30, 2, 4.0, cn), seed)
        q, _ = np.linalg.qr(left)
        # sine of the largest principal angle between the two column spaces
        assert np.linalg.norm(x0.U - q @ (q.T @ x0.U), 2) > 0.1


def test_complete_rejects_rank_with_rank_updates(tmp_path, capsys):
    data, _ = write_problem(tmp_path)
    report = tmp_path / "report.json"
    code = run_cli("complete", "--data", str(data), "--rank", "7", "--rank-updates", "2",
                   "--seed", "0", "--report", str(report))
    assert code == 2
    assert capsys.readouterr().err == "error: --rank-updates and --rank are exclusive\n"
    assert not report.exists()


def test_unreadable_data_is_a_usage_error(tmp_path, capsys):
    code = run_cli("complete", "--data", str(tmp_path / "missing.mtx"),
                   "--rank", "2", "--seed", "0")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_entry_count_beyond_the_grid_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "big.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "3 3 4000000000000\n1 1 1.0\n")
    code = run_cli("complete", "--data", str(path), "--rank", "1", "--seed", "0")
    assert code == 2
    assert capsys.readouterr().err == (
        "error: line 2: 4000000000000 entries exceed the 3 x 3 grid\n")


TALL_ROWS = 2**62  # one rank-1 factor column of this many rows is 2**65 bytes


@pytest.mark.parametrize("command", [
    ["complete", "--data", "tall.mtx", "--rank", "1", "--seed", "0"],
    ["complete", "--data", "tall.mtx", "--rank-updates", "1", "--seed", "0"],
    ["synth", "--n", str(TALL_ROWS), "--m", "2", "--rank", "1", "--os", "1.5",
     "--seed", "0", "--out", "out"],
    ["bench", "--n", str(TALL_ROWS), "--m", "2", "--ranks", "1", "--os", "1.5",
     "--seeds", "0", "--out-dir", "out"],
], ids=["rank", "rank-updates", "synth", "bench"])
def test_factors_too_large_for_an_array_are_a_usage_error(tmp_path, capsys, monkeypatch,
                                                          command):
    # the size rule fails before any factor is allocated
    (tmp_path / "tall.mtx").write_text("%%%%MatrixMarket matrix coordinate real general\n"
                                       "%d 2 1\n1 1 1.0\n" % TALL_ROWS)
    monkeypatch.chdir(tmp_path)
    assert run_cli(*command) == 2
    assert capsys.readouterr().err == (
        "error: rank-1 factors of the %d x 2 grid exceed 2**63 bytes\n" % TALL_ROWS)
    assert not (tmp_path / "out").exists()


def test_an_allocation_failure_is_a_usage_error(tmp_path, capsys, monkeypatch):
    message = ("Unable to allocate 22.4 GiB for an array with shape (3000000000, 1) "
               "and data type float64")

    def too_big(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "random_point", too_big)
    data, _ = write_problem(tmp_path)
    assert run_cli("complete", "--data", str(data), "--rank", "1", "--seed", "0") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""


@pytest.mark.parametrize("mode", [["--rank", "2"], ["--rank-updates", "2"]],
                         ids=["fixed-rank", "homotopy"])
def test_complete_checks_for_an_empty_test_set_before_solving(tmp_path, capsys,
                                                              monkeypatch, mode):
    solves = []
    for name in ("early_stopped_solve", "rank_incremental_solve"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: solves.append(name))
    data, _ = write_problem(tmp_path)
    report = tmp_path / "report.json"
    code = run_cli("complete", "--data", str(data), "--test", str(write_empty(tmp_path)),
                   "--seed", "3", "--report", str(report), *mode)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: test pattern is empty\n"
    assert captured.out == "" and not report.exists() and not solves


@pytest.mark.parametrize("mode", [["--rank", "2"], ["--rank-updates", "2"]],
                         ids=["fixed-rank", "homotopy"])
def test_complete_rejects_a_test_set_that_overlaps_the_training_data(tmp_path, capsys,
                                                                     monkeypatch, mode):
    solves = []
    for name in ("early_stopped_solve", "rank_incremental_solve"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: solves.append(name))
    data, _ = write_problem(tmp_path)
    report = tmp_path / "report.json"
    code = run_cli("complete", "--data", str(data), "--test", str(data), "--seed", "3",
                   "--report", str(report), *mode)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: test pattern overlaps the training pattern\n"
    assert captured.out == "" and not report.exists() and not solves


def test_complete_leaves_the_global_flop_count_running(tmp_path):
    # the report counts the solve's own flops as a difference, so a count
    # other code has run up is neither lost nor reported
    data, _ = write_problem(tmp_path)
    flops = []
    for start in (0, 10**15):
        reset_op_count()
        problem_module.op_counter.add(start)
        report = tmp_path / ("report_%d.json" % start)
        assert run_cli("complete", "--data", str(data), "--rank", "2", "--seed", "3",
                       "--max-iters", "20", "--report", str(report)) in (0, 3)
        flops.append(json.loads(report.read_text())["result"]["sparse_flops"])
        assert op_count() >= start + flops[-1]
    assert flops[0] == flops[1] > 0
    assert op_count() >= 10**15


@pytest.mark.parametrize("command, option, value, quantity", [
    ("synth", "--os", "nan", "oversampling"),
    ("synth", "--os", "inf", "oversampling"),
    ("synth", "--cn", "nan", "condition number"),
    ("synth", "--cn", "inf", "condition number"),
    ("movielens-prep", "--fractions", "nan,0.5,0.5", "fractions"),
    ("complete", "--cost-tol", "nan", "tolerances"),
    ("complete", "--grad-tol", "nan", "tolerances"),
    ("complete", "--cost-tol", "inf", "tolerances"),
])
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, command, option, value,
                                             quantity):
    if command == "synth":
        argv = ["--n", "10", "--m", "10", "--rank", "2", "--os", "2", "--seed", "0",
                "--out", str(tmp_path / "out")]
    elif command == "movielens-prep":
        argv = ["--ratings", str(write_ratings(tmp_path)), "--seed", "0",
                "--out-dir", str(tmp_path / "out")]
    else:
        argv = ["--data", str(write_problem(tmp_path)[0]), "--rank", "2", "--seed", "0",
                "--report", str(tmp_path / "out" / "report.json")]
    assert run_cli(command, *argv, option, value) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and quantity in lines[0]
    assert not (tmp_path / "out").exists()
