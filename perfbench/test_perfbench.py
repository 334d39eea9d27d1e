"""Smoke sizes of every workload, and proof that each check can fail.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs at its smoke size with every check; then each check
is shown to fail on a deliberately perturbed copy of a real solution.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402  (pins BLAS threads before numpy is used)
import workloads  # noqa: E402
from r3mc.manifold import FixedRankPoint  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """name -> (workload, instance, outcome) of one smoke solve each."""
    work = tmp_path_factory.mktemp("work")
    out = {}
    for name in workloads.NAMES:
        wl = workloads.make(name, work, smoke=True)
        wl.prepare(3, 0)
        inst = wl.setup(3, 0)
        assert wl.check_setup(inst) == []
        result = wl.solve(inst)
        assert result.stopped
        assert wl.check(inst, result) == []
        out[name] = (wl, inst, result)
    return out


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_reports_every_end_to_end_metric(name, tmp_path):
    wl = workloads.make(name, tmp_path, smoke=True)
    tally, metrics, _ = run.measure(wl, seed=5, seconds=0)
    assert tally.failed == 0 and tally.problems == []
    assert set(metrics) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_smoke_run_reports_every_layer_metric(name, tmp_path):
    wl = workloads.make(name, tmp_path, smoke=True)
    tally, metrics, detail = run.measure_traced(wl, seed=5, seconds=0)
    assert tally.failed == 0 and tally.problems == []
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    assert metrics["solver.iterations"] > 0
    assert metrics["problem.masked_values.calls"] > 0
    # every patched function is restored
    from r3mc import cli, rng, solver
    from tracer import TARGETS
    assert not hasattr(solver.cg_solve, "__wrapped__")
    assert not hasattr(cli.mean_squared_error, "__wrapped__")
    assert not hasattr(rng.CounterRng.standard_normal, "__wrapped__")
    assert rng.CounterRng.raw.__name__ == "raw"
    assert all(not hasattr(getattr(owner, attr), "__wrapped__")
               for _, owner, names in TARGETS for attr in names)


def _messages(problems, fragment):
    return [p for p in problems if fragment in p]


def test_synthesize_check_fails_on_changed_values(solved):
    wl, inst, _ = solved["recover-2k"]
    bad = copy.deepcopy(inst)
    bad.problem.entries.vals[3] += 1e-6
    assert _messages(wl.check_setup(bad), "factor product")


def test_synthesize_check_fails_on_duplicate_or_missing_cells():
    from checks import synthesized_values
    left, right = np.ones((4, 1)), np.ones((1, 4))
    rows, cols = np.array([0, 1, 1]), np.array([0, 2, 2])
    found = synthesized_values(rows, cols, np.ones(3), left, right, 4, 4, 4)
    assert _messages(found, "duplicate") and _messages(found, "entry count")


@pytest.mark.parametrize("name", ["recover-2k", "illcond-1k"])
def test_solution_checks_fail_on_perturbed_factors(solved, name):
    wl, inst, out = solved[name]
    x, trace = out.detail
    tilted = FixedRankPoint(x.U * 1.001, x.R, x.V)
    assert _messages(wl.check(inst, _with(out, tilted, trace)), "not orthonormal")
    moved = FixedRankPoint(x.U, x.R * 1.5, x.V)
    found = wl.check(inst, _with(out, moved, trace))
    assert _messages(found, "recovery error") and _messages(found, "recomputed cost")


@pytest.mark.parametrize("name", ["recover-2k", "illcond-1k"])
def test_trace_checks_fail_on_perturbed_trace(solved, name):
    wl, inst, out = solved[name]
    x, trace = out.detail
    rising = copy.deepcopy(trace)
    rising.rows[1] = rising.rows[1].__class__(**{**vars(rising.rows[1]),
                                                 "cost": 2 * rising.initial_cost})
    assert _messages(wl.check(inst, _with(out, x, rising)), "trace cost rises")
    wrong_final = copy.deepcopy(trace)
    last = wrong_final.rows[-1]
    wrong_final.rows[-1] = last.__class__(**{**vars(last), "cost": last.cost * 0.5})
    assert _messages(wl.check(inst, _with(out, x, wrong_final)), "recomputed cost")


def _with(out, x, trace):
    return workloads.Outcome(True, out.iterations, (x, trace))


def _rewrite(path, transform):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(transform(lines)))


def test_ratings_checks_fail_on_perturbed_outputs(solved):
    wl, inst, out = solved["ratings-val"]
    fixed_dir = out.detail[0]
    splits = inst.data["splits"]
    saved = {p: p.read_text() for p in (fixed_dir / "sol_U.mtx", fixed_dir / "sol_R.mtx",
                                        splits / "test.mtx", splits / "val.mtx")}
    try:
        # a changed rating in the written test split
        _rewrite(splits / "test.mtx", lambda ls: ls[:2] + [
            " ".join(ls[2].split()[:2] + ["9.0"]) + "\n"] + ls[3:])
        assert _messages(_check_setup_afresh(wl, inst), "differ from the generated")
        (splits / "test.mtx").write_text(saved[splits / "test.mtx"])
        # a test rating duplicated into the validation split
        test_line = saved[splits / "test.mtx"].splitlines()[2]
        _rewrite(splits / "val.mtx", lambda ls: [ls[0], _bump_count(ls[1])] + ls[2:]
                 + [test_line + "\n"])
        found = _check_setup_afresh(wl, inst)
        assert _messages(found, "overlap") and _messages(found, "do not cover")
        (splits / "val.mtx").write_text(saved[splits / "val.mtx"])
        assert _check_setup_afresh(wl, inst) == []
        # a scaled middle factor: the cost and the test MSE no longer match
        _rewrite(fixed_dir / "sol_R.mtx", lambda ls: ls[:2] + [
            repr(2.0 * float(v)) + "\n" for v in ls[2:]])
        found = wl.check(inst, out)
        assert _messages(found, "recomputed cost") and _messages(found, "test MSE")
        (fixed_dir / "sol_R.mtx").write_text(saved[fixed_dir / "sol_R.mtx"])
        # a left factor that is no longer orthonormal
        _rewrite(fixed_dir / "sol_U.mtx", lambda ls: ls[:2] + [
            repr(1.01 * float(v)) + "\n" for v in ls[2:]])
        assert _messages(wl.check(inst, out), "not orthonormal")
    finally:
        for path, text in saved.items():
            path.write_text(text)
    assert wl.check(inst, out) == []


def _check_setup_afresh(wl, inst):
    inst.data.pop("parts", None)  # the splits are read once per instance
    return wl.check_setup(inst)


def _bump_count(size_line):
    n, m, nnz = size_line.split()
    return "%s %s %d\n" % (n, m, int(nnz) + 1)


def test_split_check_fails_on_wrong_sizes():
    from checks import ratings_splits
    users, items = np.repeat(np.arange(1, 11), 2), np.tile([1, 2], 10)
    ratings = np.ones(20)
    lin = np.arange(20)
    parts = {name: (lin[sl] // 2, lin[sl] % 2, ratings[sl])
             for name, sl in (("train", slice(0, 13)), ("val", slice(13, 17)),
                              ("test", slice(17, 20)))}
    found = ratings_splits(users, items, ratings, parts, (0.8, 0.1, 0.1))
    assert _messages(found, "train split") and _messages(found, "val split")
    assert not _messages(found, "overlap") and not _messages(found, "cover")


def test_heldout_check_fails_when_the_mean_predicts_better():
    from checks import heldout
    rows, cols = np.arange(4), np.arange(4)
    vals = np.full(4, 4.0)
    zero = np.zeros((4, 1))
    found, _ = heldout(zero, np.zeros((1, 1)), zero, (rows, cols, vals), vals, 16.0)
    assert _messages(found, "train-mean")


def test_homotopy_check_fails_when_a_worse_rank_is_returned(solved):
    from checks import best_validation_rank
    result = solved["ratings-val"][2].detail[2][1]["result"]
    assert best_validation_rank(result) == []
    ranks = result["ranks"]
    worst = max(ranks, key=lambda s: s["validation_mse"])
    bad = dict(result, final_rank=worst["rank"], validation_mse=worst["validation_mse"])
    assert _messages(best_validation_rank(bad), "best validation rank")


def test_ratings_solve_counts_a_cli_error_as_a_failed_operation(solved, tmp_path):
    wl = solved["ratings-val"][0]
    missing = workloads.Instance(7, data={"splits": tmp_path / "missing" / "splits"})
    outcome = wl.solve(missing)
    assert not outcome.stopped and outcome.iterations == 0
