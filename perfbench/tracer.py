"""Per-layer timing of the calls into r3mc's public functions.

A ``Tracer`` swaps each listed function for a timing wrapper in every
r3mc module and benchmark module namespace that holds it (``solver``,
``cli`` and the workloads import by name, so patching the defining
module alone would miss their calls),
keeps a stack of open spans so each span knows its parent, and
aggregates per (function, parent) pair: calls, inclusive seconds, self
seconds (the span minus the time its traced children cover), self
sparse flops from ``op_count`` and computed bytes.  Nothing is written
into the program's files; ``installed()`` undoes every patch on exit.
"""

import sys
import time
from contextlib import contextmanager
from pathlib import Path

from r3mc import cli, data_io, manifold, problem, rng, smallmat, solver

# layer -> (owner, attribute names); an owner is a module or a class whose
# attribute is replaced.  Layer names are the module names.  Only what the
# reported metrics read is wrapped: wrapping a parent does not change a
# leaf's self time, and every wrapper costs time on its call path.
# ``problem.cost`` is wrapped so line-search trials (its calls from
# ``cg_solve``) can be counted; ``CounterRng.raw`` is counted without a
# span in ``Tracer.installed``, as it runs once per sampled cell.
TARGETS = (
    ("problem", problem, ("masked_values", "sparse_apply", "direction_values",
                          "mean_squared_error", "cost")),
    ("rng", rng.CounterRng, ("uniform", "standard_normal", "permutation",
                             "sample_without_replacement")),
    ("data_io", data_io, ("parse_movielens", "split_train_val_test",
                          "read_matrix_market", "write_matrix_market")),
    ("solver", solver, ("cg_solve", "rank_one_update")),
    ("manifold", manifold, ("retract", "transport_to", "metric")),
    ("smallmat", smallmat, ("solve_lyapunov_spd", "solve_coupled_lyapunov",
                            "polar_orthonormal_factor")),
    ("cli", cli, ("cmd_complete",)),
)

_F8 = 8  # bytes per float64 or int64


def _masked_bytes(args, kwargs):
    x, entries = args[0], args[1]
    # two indices, one gathered row of U R and of V, one output value
    return entries.count * _F8 * (3 + 2 * x.r)


def _direction_bytes(args, kwargs):
    x, entries = args[0], args[2]
    # two indices, gathered rows of dU R + U dR, V, U R and dV, one output
    return entries.count * _F8 * (3 + 4 * x.r)


def _sparse_apply_bytes(args, kwargs):
    s, dense = args[0], args[1]
    transpose = kwargs.get("transpose", args[2] if len(args) > 2 else False)
    pat = s.pattern
    k = dense.shape[1]
    out_rows = pat.m if transpose else pat.n
    # one index and one value per entry, one gathered dense row, the output
    return pat.count * _F8 * (2 + k) + out_rows * k * _F8


BYTE_MODELS = {
    "problem.masked_values": _masked_bytes,
    "problem.direction_values": _direction_bytes,
    "problem.sparse_apply": _sparse_apply_bytes,
}


class Tracer:
    """Span aggregation for one traced pass; install with ``installed()``."""

    def __init__(self):
        # (name, parent name or "") -> [calls, total_s, self_s, self_flops, bytes]
        self.stats = {}
        self.traces = []        # SolverTrace of every cg_solve call
        self.entries_read = 0   # entries returned by read_matrix_market
        self.raw_calls = 0      # calls of CounterRng.raw
        self._stack = []
        self._flops_offset = 0

    def _flops(self):
        return self._flops_offset + problem.op_counter.flops

    def _wrap(self, name, fn, on_result=None):
        stack, stats, clock, flops = self._stack, self.stats, time.perf_counter, self._flops
        byte_model = BYTE_MODELS.get(name)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, 0]  # name, child seconds, child flops
            parent = stack[-1] if stack else None
            stack.append(frame)
            f0 = flops()
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                df = flops() - f0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                    parent[2] += df
                key = (name, parent[0] if parent is not None else "")
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                rec[3] += df - frame[2]
                if byte_model is not None:
                    rec[4] += byte_model(args, kwargs)
            if on_result is not None:
                on_result(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _on_cg_solve(self, out):
        self.traces.append(out[1])

    def _on_read_mm(self, out):
        self.entries_read += out.count

    @contextmanager
    def installed(self):
        """Patch every target in every r3mc namespace; restore on exit."""
        hooks = {"solver.cg_solve": self._on_cg_solve,
                 "data_io.read_matrix_market": self._on_read_mm}
        here = Path(__file__).resolve().parent
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "r3mc" or key.startswith("r3mc.")
                   or Path(getattr(mod, "__file__", None) or "/").resolve().parent == here]
        undo = []
        counter = problem.op_counter
        # cli resets the global flop counter per solve; keep a running offset
        original_reset = counter.reset

        def reset():
            self._flops_offset += counter.flops
            original_reset()

        counter.reset = reset
        raw = rng.CounterRng.__dict__["raw"]

        def counted_raw(gen, count):
            self.raw_calls += 1
            return raw(gen, count)

        rng.CounterRng.raw = counted_raw
        undo.append((rng.CounterRng, "raw", raw))
        try:
            for layer, owner, names in TARGETS:
                for attr in names:
                    original = owner.__dict__[attr]
                    label = "%s.%s" % (layer, attr)
                    wrapper = self._wrap(label, original, hooks.get(label))
                    holders = [owner] if isinstance(owner, type) else [
                        mod for mod in modules if mod.__dict__.get(attr) is original
                    ]
                    for holder in holders:
                        setattr(holder, attr, wrapper)
                        undo.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)
            del counter.reset

    def table(self):
        """Rows per function: calls, total_s, self_s, self_flops, bytes, parents."""
        rows = {}
        for (name, parent), (calls, total, own, flops, nbytes) in self.stats.items():
            row = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "self_flops": 0, "bytes": 0, "parents": {}})
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += own
            row["self_flops"] += flops
            row["bytes"] += nbytes
            row["parents"][parent or "-"] = calls
        return dict(sorted(rows.items()))

    def span(self, name, parent):
        """(calls, inclusive seconds) of ``name`` called directly from ``parent``."""
        rec = self.stats.get((name, parent))
        return (rec[0], rec[1]) if rec else (0, 0.0)
