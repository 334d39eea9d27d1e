"""r3mc benchmark: end-to-end timings with independent checks, and a
traced per-layer table.

    python3 perfbench/run.py --workload recover-2k --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0 [--smoke]

Run from the repository root; the program is imported from ``src/``.
BLAS is pinned to one thread before numpy loads.  With ``--trace 0`` the
run reports every end-to-end metric, with ``--trace 1`` every per-layer
metric.  The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics; the full result, with library
versions, ``nproc``, the BLAS thread settings and the per-layer table,
is written to ``perfbench/out/``.  ``--workload all`` runs each workload
in its own child process, one after the other, so each peak RSS is its
own.  See README.md for what each workload and metric means.
"""

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END = {"setup_s": "s", "solve_s": "s", "iter_ms": "ms", "peak_rss_mb": "MB"}


def import_program():
    """Put the checkout's sources first on the path; fail without them."""
    if not (SRC / "r3mc" / "__init__.py").is_file():
        sys.exit("perfbench: no r3mc sources at %s" % SRC)
    sys.path[:0] = [str(SRC), str(HERE)]
    import r3mc
    if Path(r3mc.__file__).resolve().parent != SRC / "r3mc":
        sys.exit("perfbench: imported r3mc from %s, not %s" % (r3mc.__file__, SRC))


def environment():
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "blas": blas,
        "platform": platform.platform(),
    }


def program_errors():
    from r3mc import errors
    return tuple(v for v in vars(errors).values()
                 if isinstance(v, type) and issubclass(v, Exception))


class Tally:
    """Operations attempted and failed, and check failures of the rest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.errors = []

    def run(self, what, fn, *args):
        """Time fn(*args) as one operation; (result, seconds) or (None, t)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except program_errors() as exc:
            self.failed += 1
            self.errors.append("%s: %s: %s" % (what, type(exc).__name__, exc))
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0

    def note(self, what, problems):
        self.problems += ["%s: %s" % (what, p) for p in problems]


def setups(wl, seed, tally):
    for k in range(wl.instances):
        wl.prepare(seed, k)
    times, instances = [], {}
    for k in range(wl.setups):
        inst, dt = tally.run("setup %d" % k, wl.setup, seed, k)
        if inst is None:
            continue
        times.append(dt)
        tally.note("setup %d" % k, wl.check_setup(inst))
        instances.setdefault(k % wl.instances, inst)
    return times, instances


def solve_once(wl, inst, tally, what):
    out, dt = tally.run(what, wl.solve, inst)
    if out is None:
        return None, dt
    if not out.stopped:
        tally.failed += 1
        tally.errors.append("%s: did not reach its stop" % what)
        return None, dt
    tally.note(what, wl.check(inst, out))
    return out, dt


def measure(wl, seed, seconds):
    """Set up every instance, then solve whole rounds until ``seconds``."""
    tally = Tally()
    setup_times, instances = setups(wl, seed, tally)
    times = {k: [] for k in instances}
    per_iter = {k: [] for k in instances}
    quality = {}
    start = time.perf_counter()
    rounds = 0
    while True:
        for k, inst in instances.items():
            out, dt = solve_once(wl, inst, tally, "solve %d" % k)
            if out is not None:
                times[k].append(dt)
                per_iter[k].append(dt / out.iterations)
                quality[k] = dict(out.quality, iterations=out.iterations)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    solved = [k for k in times if times[k]]
    if not setup_times or not solved:
        return tally, None, {"rounds": rounds}
    metrics = {
        "setup_s": statistics.median(setup_times),
        # medians over instances: a rare instance that needs far more
        # iterations (seen on ratings-val) does not move the figure
        "solve_s": statistics.median(statistics.median(times[k]) for k in solved),
        "iter_ms": 1000.0 * statistics.median(statistics.median(per_iter[k]) for k in solved),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"rounds": rounds, "setup_times_s": setup_times,
              "solve_times_s": {str(k): v for k, v in times.items()},
              "quality": {str(k): v for k, v in quality.items()}}
    return tally, metrics, detail


def measure_traced(wl, seed, seconds):
    """One untraced and one traced pass of set-up and solve on instance 0,
    then more untraced/traced solve pairs until ``seconds``; the layer
    figures come from the first traced pass, the solve overhead from all
    pairs and the set-up overhead from the one pair of set-ups."""
    from tracer import Tracer
    tally = Tally()
    wl.prepare(seed, 0)
    inst, setup_plain = tally.run("setup", wl.setup, seed, 0)
    if inst is None:
        return tally, None, {}
    tally.note("setup", wl.check_setup(inst))
    tracer = Tracer()
    plain, traced, quality = [], [], None
    first = True
    start = time.perf_counter()
    while True:
        out, dt = solve_once(wl, inst, tally, "untraced solve")
        if out is not None:
            plain.append(dt)
        with (tracer if first else Tracer()).installed():
            if first:
                inst_t, setup_traced = tally.run("traced setup", wl.setup, seed, 0)
                if inst_t is None:
                    return tally, None, {}
            out, dt = solve_once(wl, inst_t, tally, "traced solve")
        first = False
        if out is not None:
            traced.append(dt)
            quality = quality or out.quality
        if time.perf_counter() - start >= seconds:
            break
    if not plain or not traced:
        return tally, None, {}
    table = tracer.table()
    metrics = layer_metrics(tracer, table, quality)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["trace.setup_overhead_s"] = setup_traced - setup_plain
    return tally, metrics, {"untraced_solve_s": plain, "traced_solve_s": traced,
                            "untraced_setup_s": setup_plain, "traced_setup_s": setup_traced,
                            "layer_table": table, "quality": {"0": quality}}


def layer_metrics(tracer, table, quality):
    """Per-layer figures of one traced set-up and solve.  ``.s`` is self
    time (the span minus its traced children)."""
    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def layer_sum(prefix, key):
        return sum(row[key] for name, row in table.items() if name.startswith(prefix))

    iterations = sum(tr.iterations for tr in tracer.traces)
    trials = tracer.span("problem.cost", "solver.cg_solve")[0] - len(tracer.traces)
    read_s = table.get("data_io.read_matrix_market", {}).get("total_s", 0.0)
    validation_calls, validation_s = tracer.span("problem.mean_squared_error",
                                                 "solver.cg_solve")
    cli_run = calls("cli.cmd_complete") > 0
    m = {}
    for fn in ("masked_values", "sparse_apply", "direction_values", "mean_squared_error"):
        m["problem.%s.calls" % fn] = calls("problem." + fn)
        m["problem.%s.s" % fn] = self_s("problem." + fn)
    m["problem.masked_values.per_iter"] = (
        calls("problem.masked_values") / iterations if iterations else 0.0)
    m["problem.flops"] = layer_sum("problem.", "self_flops")
    m["problem.bytes"] = layer_sum("problem.", "bytes")
    m["rng.raw.calls"] = tracer.raw_calls
    m["rng.s"] = layer_sum("rng.", "self_s")
    for fn in ("read_matrix_market", "write_matrix_market", "parse_movielens",
               "split_train_val_test"):
        m["data_io.%s.s" % fn] = self_s("data_io." + fn)
    m["data_io.read_mm.entries_per_s"] = tracer.entries_read / read_s if read_s else 0.0
    m["solver.iterations"] = iterations
    m["solver.cost_evals"] = trials
    m["solver.accept_ratio"] = iterations / trials if trials else 0.0
    m["solver.backtracks"] = sum(r.backtracks for tr in tracer.traces for r in tr.rows)
    m["solver.resets"] = sum(int(r.reset) for tr in tracer.traces for r in tr.rows)
    m["solver.rank_one_update.calls"] = calls("solver.rank_one_update")
    m["solver.rank_one_update.s"] = self_s("solver.rank_one_update")
    for name in ("manifold.retract", "manifold.transport_to", "manifold.metric",
                 "smallmat.solve_lyapunov_spd", "smallmat.solve_coupled_lyapunov",
                 "smallmat.polar_orthonormal_factor"):
        m[name + ".calls"] = calls(name)
        m[name + ".s"] = self_s(name)
    m["cli.complete.self_s"] = self_s("cli.cmd_complete")
    m["cli.validation.calls"] = validation_calls
    m["cli.validation.s"] = validation_s
    for key in ("heldout_rmse", "heldout_rmse_homotopy"):  # ratings protocol only
        m["cli." + key] = quality.get(key, 0.0) if cli_run else 0.0
    return m


LAYER_UNITS = (("per_iter", "calls/iter"), ("rmse", "rating"),
               ("rmse_homotopy", "rating"), ("calls", "count"), ("flops", "flop"),
               ("bytes", "B"), ("entries_per_s", "1/s"), ("accept_ratio", "ratio"),
               ("iterations", "count"), ("cost_evals", "count"), ("backtracks", "count"),
               ("resets", "count"), ("_s", "s"), (".s", "s"))


def layer_unit(name):
    return next(unit for suffix, unit in LAYER_UNITS if name.endswith(suffix))


def run_one(args):
    import workloads
    work = OUT / ("work-%d" % os.getpid())
    wl = workloads.make(args.workload, work, smoke=args.smoke)
    try:
        if args.trace:
            tally, metrics, detail = measure_traced(wl, args.seed, args.seconds)
            units = {name: layer_unit(name) for name in metrics or {}}
        else:
            tally, metrics, detail = measure(wl, args.seed, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in tally.errors + tally.problems:
        print("%s: %s" % (args.workload, line), file=sys.stderr)
    if metrics is None:
        sys.exit("perfbench: %s: no operation succeeded" % args.workload)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, smoke=args.smoke,
                  environment=environment(), errors=tally.errors,
                  problems=tally.problems, detail=detail)
    OUT.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace,
                                         "-smoke" if args.smoke else "")
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for key, m in result["metrics"].items():
        print("%-12s %-36s %16.6g %s" % (args.workload, key, m["value"], m["unit"]))
    for key, value in sorted(detail.get("quality", {}).get("0", {}).items()):
        print("%-12s %-36s %16.6g" % (args.workload, "(instance 0) " + key, value))
    print("%-12s attempted %d failed %d correct %s"
          % (args.workload, tally.attempted, tally.failed, result["correct"]))
    print(json.dumps(result))


def run_all(args, names):
    """Each workload in its own child process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.exit("perfbench: workload %s exited with %d" % (name, proc.returncode))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, key)] = m
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes that run every check in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    import_program()
    import workloads
    if args.workload == "all":
        run_all(args, workloads.NAMES)
    elif args.workload in workloads.NAMES:
        run_one(args)
    else:
        parser.error("--workload must be one of %s or all" % ", ".join(workloads.NAMES))


if __name__ == "__main__":
    main()
