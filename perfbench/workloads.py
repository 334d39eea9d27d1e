"""The benchmark workloads.

Each workload makes its inputs from the run seed, times a set-up step
and a solve step, and checks every output with ``checks``.  A run holds
``instances`` distinct inputs; a round solves each of them once.

Interface: ``prepare(seed, k)`` makes the benchmark's own inputs of
instance k (not timed), ``setup(seed, k)`` returns instance k (timed as set-up),
``check_setup(inst)`` checks it, ``solve(inst)`` runs the program on it
(timed as solve) and returns an ``Outcome``, and ``check(inst, out)``
checks that and fills ``out.quality``.
"""

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from r3mc import cli
from r3mc.data_io import SyntheticSpec, synthesize
from r3mc.manifold import random_point
from r3mc.solver import REASON_MAX_ITERATIONS, SolverConfig, cg_solve

import checks


def sub_seed(seed, k):
    """Seed of instance k in the run with seed ``seed``.  The program's
    generators also use seed + 1, so instances sit ten apart."""
    return 100 * seed + 10 * k


def stop_tolerance(vals, eps):
    """Absolute cost stop for relative accuracy eps.  ``cost_tolerance``
    is absolute and the data scale differs by workload (entries of the
    conditioned generator are about sqrt(r / (n m))), so the stop is
    eps^2 * mean(vals^2)."""
    return eps * eps * float(vals @ vals) / vals.size


@dataclass
class Outcome:
    stopped: bool  # the solve reached its stop; False counts as a failed operation
    iterations: int
    detail: object = None
    quality: dict = field(default_factory=dict)


@dataclass
class Instance:
    seed: int
    problem: object = None
    truth: tuple = None
    data: dict = field(default_factory=dict)


class Conditioned:
    """``synthesize`` inputs, a cold ``cg_solve`` from ``random_point``."""

    def __init__(self, name, n, m, rank, oversampling, cn, eps,
                 recovery_threshold, instances, max_iterations, budget_stops=False):
        self.name = name
        self.spec = SyntheticSpec(n, m, rank, oversampling, condition_number=cn)
        self.rank, self.eps = rank, eps
        self.recovery_threshold = recovery_threshold
        self.instances = self.setups = instances
        self.max_iterations = max_iterations
        self.budget_stops = budget_stops

    def prepare(self, seed, k):
        """``synthesize`` makes the inputs, so its time is the set-up."""

    def setup(self, seed, k):
        s = sub_seed(seed, k)
        problem, truth = synthesize(self.spec, s)
        return Instance(s, problem, truth)

    def check_setup(self, inst):
        e = inst.problem.entries
        spec = self.spec
        expected = int(round(spec.oversampling * spec.rank * (spec.n + spec.m - spec.rank)))
        return checks.synthesized_values(e.rows, e.cols, e.vals, *inst.truth,
                                         spec.n, spec.m, expected)

    def solve(self, inst):
        p = inst.problem
        x0 = random_point(p.n, p.m, p.rank, inst.seed + 5)
        config = SolverConfig(max_iterations=self.max_iterations,
                              cost_tolerance=stop_tolerance(p.entries.vals, self.eps))
        x, trace = cg_solve(p, x0, config)
        stopped = trace.converged or (self.budget_stops
                                      and trace.reason == REASON_MAX_ITERATIONS)
        return Outcome(stopped, trace.iterations, (x, trace))

    def check(self, inst, out):
        x, trace = out.detail
        e = inst.problem.entries
        left, right = inst.truth
        problems = checks.orthonormal(x.U, x.V)
        problems += checks.final_cost(x.U, x.R, x.V, e.rows, e.cols, e.vals,
                                      trace.final_cost)
        problems += checks.non_increasing(trace.initial_cost, [r.cost for r in trace.rows])
        found, rel, excluded, rmse = checks.recovery(
            x.U, x.R, x.V, lambda i, j: np.sum(left[i] * right[:, j].T, axis=1),
            e.rows, e.cols, e.n, e.m, self.rank, np.random.default_rng([inst.seed, 7]),
            cells=20000, threshold=self.recovery_threshold,
        )
        out.quality = {"heldout_rmse": rmse, "recovery_rel_error": rel,
                       "excluded_cells": excluded}
        return problems + found


def generate_ratings(seed, users, items, target, rank=5):
    """Synthetic ``UserID::MovieID::Rating::Timestamp`` ratings.

    A rank-``rank`` score plus user and item biases and gaussian noise,
    rounded to 1..5.  User degrees are ten plus a share of the rest that
    falls as a power of the user's rank; items are drawn with Zipf-like
    popularity, so both degree sequences are power laws with the same
    profile for every seed.  Returns (user ids, item ids, ratings),
    ids 1-based.
    """
    gen = np.random.default_rng([seed, 2])
    p = gen.standard_normal((users, rank))
    q = gen.standard_normal((items, rank))
    bias_u = 0.3 * gen.standard_normal(users)
    bias_i = 0.3 * gen.standard_normal(items)
    popularity = (1.0 + np.arange(items)) ** -0.8
    popularity = gen.permutation(popularity / popularity.sum())
    floor = 10
    # user degrees: a power law in the user's rank, shuffled, summing to target
    weight = (1.0 + np.arange(users)) ** -0.4
    extra = np.floor((target - floor * users) * weight / weight.sum()).astype(np.int64)
    degree = gen.permutation(np.minimum(floor + extra, items // 2))
    u_ids = np.repeat(np.arange(users), degree)
    i_ids = np.concatenate([gen.choice(items, d, replace=False, p=popularity)
                            for d in degree])
    score = 3.6 + np.sum(p[u_ids] * q[i_ids], axis=1) / np.sqrt(rank)
    score += bias_u[u_ids] + bias_i[i_ids] + 0.5 * gen.standard_normal(u_ids.size)
    ratings = np.clip(np.rint(score), 1, 5)
    return u_ids + 1, i_ids + 1, ratings


class RatingsVal:
    """A generated ratings file through the CLI: ``movielens-prep``, then
    ``complete --rank 5 --val --test`` and ``complete --rank-updates 8
    --val --test``."""

    fractions = (0.8, 0.1, 0.1)

    def __init__(self, name, users, items, target, work_dir, instances, setups,
                 fixed_rank=5, max_rank=8):
        self.name = name
        self.users, self.items, self.target = users, items, target
        self.work = Path(work_dir) / name
        self.instances, self.setups = instances, setups
        self.fixed_rank, self.max_rank = fixed_rank, max_rank
        self._raw = {}

    def prepare(self, seed, k):
        """Generate and write the ratings file of instance k, once."""
        s = sub_seed(seed, k % self.instances)
        if s not in self._raw:
            u, i, r = generate_ratings(s, self.users, self.items, self.target)
            (self.work / str(s)).mkdir(parents=True, exist_ok=True)
            path = self.work / str(s) / "ratings.dat"
            stamps = 978300000 + np.arange(u.size)
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines("%d::%d::%d::%d\n" % row
                              for row in zip(u, i, r.astype(np.int64), stamps))
            self._raw[s] = (path, u, i, r)

    @staticmethod
    def _cli(argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = cli.main([str(a) for a in argv])
        return code, sink.getvalue()

    def setup(self, seed, k):
        s = sub_seed(seed, k % self.instances)
        path = self._raw[s][0]  # written by prepare(), outside the timing
        splits = path.parent / "splits"
        code, text = self._cli(["movielens-prep", "--ratings", path, "--out-dir", splits,
                                "--seed", s, "--fractions",
                                ",".join(map(str, self.fractions))])
        return Instance(s, data={"code": code, "log": text, "splits": splits})

    def check_setup(self, inst):
        if inst.data["code"] != 0:
            return ["movielens-prep exited with %d" % inst.data["code"]]
        _, users, items, ratings = self._raw[inst.seed]
        return checks.ratings_splits(users, items, ratings, self._parts(inst),
                                     self.fractions)

    @staticmethod
    def _parts(inst):
        """name -> (rows, cols, vals) of the written splits, read once."""
        if "parts" not in inst.data:
            inst.data["parts"] = {
                name: checks.read_coordinate(inst.data["splits"] / (name + ".mtx"))[2:]
                for name in ("train", "val", "test")}
        return inst.data["parts"]

    def _complete(self, inst, tag, mode):
        splits = inst.data["splits"]
        out = splits.parent / tag
        argv = ["complete", "--data", splits / "train.mtx", "--val", splits / "val.mtx",
                "--test", splits / "test.mtx", "--seed", inst.seed + 5,
                "--trace", out / "trace.csv", "--report", out / "report.json",
                "--solution-prefix", out / "sol"] + mode
        code, text = self._cli(argv)
        return code, out

    def solve(self, inst):
        fixed = self._complete(inst, "fixed", ["--rank", self.fixed_rank])
        homotopy = self._complete(inst, "homotopy", ["--rank-updates", self.max_rank])
        if fixed[0] != 0 or homotopy[0] != 0:
            # no report is written on a usage, parse or file error
            return Outcome(False, 0, (fixed, homotopy))
        reports = [checks.read_report(out / "report.json") for _, out in (fixed, homotopy)]
        iterations = sum(rep["result"]["iterations"] for rep in reports)
        return Outcome(True, iterations, (fixed[1], homotopy[1], reports))

    def check(self, inst, out):
        parts = self._parts(inst)
        train_vals = parts["train"][2]
        problems = []
        for tag, out_dir, report in zip(("fixed", "homotopy"), out.detail[:2], out.detail[2]):
            U, R, V = (checks.read_dense(out_dir / ("sol_%s.mtx" % f)) for f in "URV")
            result = report["result"]
            found = checks.orthonormal(U, V)
            found += checks.final_cost(U, R, V, *parts["train"], result["final_cost"])
            costs = checks.read_trace_costs(out_dir / "trace.csv")
            if tag == "fixed":
                found += checks.non_increasing(costs[0] if costs.size else 0.0, costs)
            else:
                found += checks.best_validation_rank(result)
            more, rmse = checks.heldout(U, R, V, parts["test"], train_vals,
                                        result["test_mse"])
            problems += ["%s: %s" % (tag, msg) for msg in found + more]
            key = "heldout_rmse" if tag == "fixed" else "heldout_rmse_homotopy"
            out.quality[key] = rmse
        out.quality["final_rank_homotopy"] = out.detail[2][1]["result"]["final_rank"]
        return problems


def make(name, work_dir, smoke=False):
    """Workload ``name`` at full size, or at smoke size (seconds, same checks)."""
    if name == "recover-2k":
        n = 300 if smoke else 2000
        return Conditioned(name, n, n, 5 if smoke else 10, 4.0, 1.0,
                           eps=1e-8, recovery_threshold=1e-6,
                           instances=2 if smoke else 3, max_iterations=1000)
    if name == "illcond-1k":
        n = 400 if smoke else 1000
        return Conditioned(name, n, n, 5 if smoke else 10, 3.0, 100.0,
                           eps=1e-2, recovery_threshold=0.25,
                           instances=2 if smoke else 5, max_iterations=40,
                           budget_stops=True)
    if name == "ratings-val":
        if smoke:
            return RatingsVal(name, 400, 200, 16000, work_dir, instances=1,
                              setups=2, fixed_rank=3, max_rank=4)
        return RatingsVal(name, 3000, 1500, 120000, work_dir, instances=3,
                          setups=6)
    raise KeyError(name)


NAMES = ("recover-2k", "illcond-1k", "ratings-val")
