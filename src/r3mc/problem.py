"""Observed-entry bookkeeping and the least-squares completion objective.

The objective is the mean squared error over the observed set Omega,

    f(x) = |P_Omega(U R VT) - data|^2 / |Omega|,

so gradients carry a 2 / |Omega| scale.  The sparse kernels (model values
on Omega, and products S D and ST D with a sparse S on Omega) are one
pass over the row-major sorted triplets each, in C (``_kernels.c``),
walking the row offsets and the columns; the gradient's S V and ST U
share one call (``residual_products``), which scales the error as it
reads it.  Each call shares its outputs out among ``_threads()``
threads, by rows or by column slabs.  ``problem`` compiles that file
when it is first imported, into ``__pycache__`` beside it (or a private
temporary directory when that cannot be written), and loads it through
``ctypes``.  The C loops add in the order the numpy kernels below do,
so results are bit for bit theirs and independent of the thread count;
the numpy kernels run instead when no C compiler is found.  In numpy, a
product with S is one ``np.bincount`` scatter-add per dense column, in
triplet order, and model values are gathered one pair of contiguous
factor columns at a time.  As the triplets are sorted
by row, a row-side gather ``a[rows]`` is ``np.repeat(a, row_counts)``,
which streams instead of gathering; the column side is a ``take`` on
``cols``.  Each numpy kernel multiplies into the gathered temporary in
place, and IEEE products commute, so the results are bit for bit those
of ``a[rows] * b[cols]``.  ``evaluate`` computes the error at a point
once, and the gradient, initial step and residual take that
``PointEvaluation`` rather than evaluate the model again.
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateDirectionError,
    DimensionError,
)
from .manifold import (FixedRankPoint, HorizontalVector, TangentTriple, check_weights,
                       normal_coordinates)


class _OpCounter:
    """Running count of sparse-kernel floating point operations."""

    def __init__(self):
        self.flops = 0

    def add(self, flops):
        self.flops += int(flops)

    def reset(self):
        self.flops = 0


op_counter = _OpCounter()


def reset_op_count():
    op_counter.reset()


def op_count():
    return op_counter.flops


def check_grid(n, m, rank=0):
    """Raise DimensionError unless the n x m grid has at most 2**63 cells, so
    every row-major cell number i m + j fits an int64, and a rank-``rank``
    factor pair on it fits a float64 array: (n + m) rank 8 < 2**63 bytes."""
    if n * m > 2**63:
        raise DimensionError("grid of %d x %d cells exceeds 2**63" % (n, m))
    if (n + m) * rank * 8 >= 2**63:
        raise DimensionError("rank-%d factors of the %d x %d grid exceed 2**63 bytes"
                             % (rank, n, m))


class ObservedEntries:
    """Sorted sparse pattern with values on an n x m grid.

    Triplets are stored row-major sorted with no duplicates: one sort
    by cell number i m + j, which needs n m <= 2**63, or none when
    the cell numbers already strictly increase.  The instance keeps its
    own copies of the arrays either way.  An empty
    pattern is allowed here and rejected where a nonempty one is required
    (problem construction).  The per-row entry counts, an n-array, are
    computed on first use, so a pattern on a grid too tall to count its
    rows can still be built.
    """

    def __init__(self, n, m, rows, cols, vals):
        n, m = int(n), int(m)
        if n < 1 or m < 1:
            raise DimensionError("grid dimensions must be positive")
        check_grid(n, m)
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not (rows.size == cols.size == vals.size):
            raise DimensionError("rows, cols, vals must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n:
                raise ContractViolationError("row index out of range")
            if cols.min() < 0 or cols.max() >= m:
                raise ContractViolationError("column index out of range")
        if not np.all(np.isfinite(vals)):
            raise ContractViolationError("values must be finite")
        # the row-major cell number, below n m <= 2**63
        key = rows.view(np.uint64) * np.uint64(m)
        key += cols.view(np.uint64)
        if np.all(key[1:] > key[:-1]):  # sorted, without duplicates
            del key  # so the copies peak at the output alone
            rows, cols, vals = rows.copy(), cols.copy(), vals.copy()
        else:
            order = np.argsort(key)  # equal keys refuse the input
            key = key[order]
            rows, cols, vals = rows[order], cols[order], vals[order]
            same = key[1:] == key[:-1]
            if np.any(same):
                k = int(np.flatnonzero(same)[0])
                raise ContractViolationError(
                    "duplicate entry at (%d, %d)" % (rows[k], cols[k])
                )
        # the compiled kernels index by the pattern, so it cannot be changed
        rows.flags.writeable = cols.flags.writeable = False
        self.n, self.m = n, m
        self.rows, self.cols, self.vals = rows, cols, vals

    @property
    def count(self):
        return int(self.vals.size)

    @cached_property
    def row_counts(self):
        """Entries in each row, read-only: ``a[rows]`` is ``np.repeat(a, row_counts)``."""
        counts = np.bincount(self.rows, minlength=self.n)
        counts.flags.writeable = False
        return counts

    @cached_property
    def row_offsets(self):
        """Entries before each row, and |Omega| last: an (n + 1)-array, read-only;
        row i holds the entries ``row_offsets[i]`` to ``row_offsets[i + 1] - 1``."""
        return _prefix(self.row_counts)

    @cached_property
    def col_offsets(self):
        """Entries in the columns before each column, and |Omega| last: an
        (m + 1)-array, read-only."""
        return _prefix(np.bincount(self.cols, minlength=self.m))


def _prefix(counts):
    """The read-only running sum 0, c0, c0 + c1, ..., sum(c) of the counts."""
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    offsets.flags.writeable = False
    return offsets


@dataclass(frozen=True)
class SparseResidual:
    """Values on the pattern of an ObservedEntries instance."""

    pattern: ObservedEntries
    vals: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.vals, dtype=np.float64).ravel()
        if vals.size != self.pattern.count:
            raise DimensionError("value count does not match pattern")
        object.__setattr__(self, "vals", vals)


def degrees_of_freedom(n, m, rank):
    """Parameter count of a rank-r matrix: r (n + m - r)."""
    return rank * (n + m - rank)


@dataclass(frozen=True)
class CompletionProblem:
    """Observed data plus the target rank."""

    entries: ObservedEntries
    rank: int

    def __post_init__(self):
        if self.entries.count < 1:
            raise ContractViolationError("need at least one observed entry")
        if not 1 <= self.rank <= min(self.entries.n, self.entries.m):
            raise ContractViolationError("rank %d must lie in [1, %d] on the %d x %d grid"
                                         % (self.rank, min(self.n, self.m), self.n, self.m))
        check_grid(self.n, self.m, self.rank)

    @property
    def n(self):
        return self.entries.n

    @property
    def m(self):
        return self.entries.m

    @property
    def dof(self):
        return degrees_of_freedom(self.n, self.m, self.rank)

    @property
    def oversampling(self):
        return self.entries.count / self.dof


_SOURCE = Path(__file__).with_name("_kernels.c")
# no contraction of a * b + c into a fused multiply-add, which rounds once
# where numpy rounds twice; no flag that reassociates sums (-ffast-math),
# and none that targets this CPU (-march=native), as the cache key does
# not record the CPU
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
# the kernels share their loops out among threads under OpenMP
_OPENMP_FLAGS = ("-fopenmp",)
# the kernels' thread count, read once: the CPUs this process may run on,
# whatever OMP_NUM_THREADS (which pins BLAS) says, up to 2, the most any
# measurement has covered (BENCH_threaded-kernels.json)
_THREADS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1, 2)
_PID = os.getpid()


def _threads():
    """The thread count of a kernel call: ``_THREADS``, or one in a forked
    child, where the OpenMP threads of the parent do not exist and a team
    of them would deadlock; so ``bench --jobs`` workers do not
    oversubscribe the CPUs either."""
    return _THREADS if os.getpid() == _PID else 1


def _load_kernels(cache=_SOURCE.with_name("__pycache__")):
    """The C kernels of ``_kernels.c`` loaded through ctypes, or None when
    the source or a C compiler ``cc`` is missing or no build succeeds.

    The source is built with ``_CFLAGS`` and ``_OPENMP_FLAGS`` or, when
    that fails, once with ``_CFLAGS`` alone, whose kernels run every call
    on one thread.  A build is kept in ``cache`` under the sha256 of the
    source, the flags and the platform, and written there as a temporary
    file that is then renamed, so processes that import at once each load
    a whole library.  The serial library is built only when the OpenMP
    build failed, so a cached library of either is loaded before any
    compiler runs, and a compiler without OpenMP fails once per cache,
    not once per import.  When ``cache`` cannot be written, the build
    goes to a private temporary directory, removed once the library is
    loaded.
    """
    private = None
    try:
        source = _SOURCE.read_bytes()
        builds = []
        for flags in (_CFLAGS + _OPENMP_FLAGS, _CFLAGS):
            key = b"\0".join([source, " ".join(flags).encode(),
                              sysconfig.get_platform().encode()])
            builds.append((flags, "_kernels.%s.so" % hashlib.sha256(key).hexdigest()[:16]))
        cached = [name for _, name in builds if (cache / name).exists()]
        if cached:
            return _bind(ctypes.CDLL(str(cache / cached[0])))
        for flags, name in builds:
            try:
                cache.mkdir(exist_ok=True)
                fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            except OSError:  # the cache cannot be written
                cache = private = Path(tempfile.mkdtemp())
                fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run(["cc", *flags, "-o", tmp, str(_SOURCE)],
                               check=True, capture_output=True)
                os.chmod(tmp, 0o755)  # readable by all, as a compiler would leave it
                os.replace(tmp, cache / name)
            except (OSError, subprocess.CalledProcessError):  # no compiler, or no build
                os.unlink(tmp)
                continue
            return _bind(ctypes.CDLL(str(cache / name)))
        return None
    except OSError:  # no source, no private directory, or a library that does not load
        return None
    finally:
        if private is not None:
            shutil.rmtree(private, ignore_errors=True)


def _bind(lib):
    """Declare the kernels' signatures; ctypes then refuses any buffer that
    is not a C-contiguous array of the declared dtype and dimension.  Each
    kernel takes its thread count first and the pattern's offsets and
    columns after the sizes.  ``share_start(offsets, n, t, size)`` is where
    thread t's share starts, and ``openmp()`` is 1 for a threaded build."""
    threads, size = ctypes.c_int, ctypes.c_int64
    index = np.ctypeslib.ndpointer(np.int64, 1, flags="C_CONTIGUOUS")
    values = np.ctypeslib.ndpointer(np.float64, 1, flags="C_CONTIGUOUS")
    block = np.ctypeslib.ndpointer(np.float64, 2, flags="C_CONTIGUOUS")
    out = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS, WRITEABLE")
    lib.gather_sum.argtypes = [threads, size, size, index, index, block, block, out]
    lib.apply_rows.argtypes = [threads, size, size, index, index, values, block, out]
    lib.apply_cols.argtypes = [threads, size, size, size, index, index, index, values,
                               block, out]
    lib.apply_pair.argtypes = [threads, size, size, size, index, index, index, values,
                               ctypes.c_double, block, block, out, out]
    for f in (lib.gather_sum, lib.apply_rows, lib.apply_cols, lib.apply_pair):
        f.restype = None
    lib.share_start.argtypes = [index, size, threads, threads]
    lib.share_start.restype = size
    lib.openmp.argtypes, lib.openmp.restype = [], ctypes.c_int
    return lib


_kernels = _load_kernels()


def _gather_sum(left, right, entries):
    """vals[k] = sum_t left[rows[k], t] * right[cols[k], t], t ascending,
    for an (n, w) block ``left`` and an (m, w) block ``right``.  In numpy,
    one contiguous column of each at a time, which beats gathering w-wide
    rows."""
    left = np.ascontiguousarray(left, dtype=np.float64)
    right = np.ascontiguousarray(right, dtype=np.float64)
    if (left.ndim != 2 or right.ndim != 2 or left.shape[0] != entries.n
            or right.shape != (entries.m, left.shape[1])):
        raise DimensionError("factor blocks do not match the pattern grid")
    if _kernels is None:
        vals = np.zeros(entries.count)
        for a, b in zip(np.ascontiguousarray(left.T), np.ascontiguousarray(right.T)):
            vals += outer_values(a, b, entries)
        return vals
    vals = np.empty(entries.count)
    _kernels.gather_sum(_threads(), entries.n, left.shape[1], entries.row_offsets,
                        entries.cols, left, right, vals)
    return vals


def outer_values(a, b, entries):
    """Values a[i] b[j] of the rank-one matrix a bT on the pattern, in
    pattern order: bit for bit ``a[rows] * b[cols]``."""
    vals = b.take(entries.cols)
    vals *= np.repeat(a, entries.row_counts)
    return vals


def masked_values(x, entries):
    """Model values U R VT evaluated on the pattern, in pattern order."""
    if x.n != entries.n or x.m != entries.m:
        raise DimensionError("point shape does not match the pattern grid")
    vals = _gather_sum(x.U @ x.R, x.V, entries)
    op_counter.add(2 * entries.count * x.r)
    return vals


def sparse_apply(s, dense, transpose=False):
    """Product S @ dense (or ST @ dense) for a sparse S on the pattern:
    column j scatter-adds s.vals * dense[in, j] into the rows out, in
    triplet order, with (out, in) = (rows, cols) for S and (cols, rows)
    for ST.  The result is Fortran-ordered, a column per dense column."""
    pat = s.pattern
    dense = np.asarray(dense, dtype=np.float64)
    if transpose:
        out_idx, size, in_size = pat.cols, pat.m, pat.n
    else:
        out_idx, size, in_size = pat.rows, pat.n, pat.m
    if dense.ndim != 2 or dense.shape[0] != in_size:
        raise DimensionError("dense operand must be a matrix with %d rows" % in_size)
    k = dense.shape[1]
    if _kernels is None:
        # gathers from contiguous columns run faster than strided ones
        columns = np.ascontiguousarray(dense.T)
        out = np.empty((k, size))
        for j, column in enumerate(columns):
            weights = np.repeat(column, pat.row_counts) if transpose else column.take(pat.cols)
            weights *= s.vals
            out[j] = np.bincount(out_idx, weights=weights, minlength=size)
        out = out.T
    else:
        # row-major bins take an entry's k products in one cache line or two;
        # the copy is the transpose of a (k, size) array, as numpy's result
        out = np.zeros((size, k))
        vals, dense = np.ascontiguousarray(s.vals, dtype=np.float64), np.ascontiguousarray(dense)
        if transpose:
            _kernels.apply_cols(_threads(), pat.n, pat.m, k, pat.row_offsets, pat.col_offsets,
                                pat.cols, vals, dense, out)
        else:
            _kernels.apply_rows(_threads(), pat.n, k, pat.row_offsets, pat.cols, vals, dense,
                                out)
        out = _fortran(out)
    op_counter.add(2 * pat.count * k)
    return out


def _fortran(out):
    """The C-ordered result of a compiled product in numpy's layout: the
    transpose of a C-ordered (k, size) array."""
    return np.array(out.T, order="C").T


def cost(problem, x, out=None):
    """Mean squared error over the observed entries; the error
    P_Omega(U R VT) - data is written into ``out`` when it is given."""
    e = np.subtract(masked_values(x, problem.entries), problem.entries.vals, out=out)
    return float(e @ e) / problem.entries.count


@dataclass(frozen=True)
class PointEvaluation:
    """One model evaluation at a point: the read-only error
    e = P_Omega(U R VT) - data in pattern order and the cost |e|^2 / |Omega|."""

    point: FixedRankPoint
    error: np.ndarray
    cost: float


def evaluate(problem, x):
    """Evaluate the model at x once, for the cost and everything after it."""
    error = np.empty(problem.entries.count)
    f = cost(problem, x, out=error)
    error.flags.writeable = False
    return PointEvaluation(x, error, f)


def residual(problem, ev):
    """Scaled residual 2 (P_Omega(U R VT) - data) / |Omega| on the pattern,
    from the PointEvaluation ev.

    This is the Euclidean gradient of the mean-square objective seen as a
    sparse matrix, the quantity every downstream consumer (gradient,
    rank update) actually wants.
    """
    return SparseResidual(problem.entries, ev.error * (2.0 / problem.entries.count))


def residual_products(problem, ev):
    """(S V, ST U) for the scaled residual S of ``residual(problem, ev)``
    at the evaluated point ev, bit for bit and in the layout of
    ``sparse_apply(S, V)`` and ``sparse_apply(S, U, transpose=True)``.
    Compiled, both come from one call that scales the error as it reads
    it, so S is never formed.  An evaluation whose point or error does not
    fit the pattern is a DimensionError."""
    x, ent = ev.point, problem.entries
    if x.n != ent.n or x.m != ent.m or np.shape(ev.error) != (ent.count,):
        raise DimensionError("evaluation does not match the pattern")
    if _kernels is None:
        s = residual(problem, ev)
        return sparse_apply(s, x.V), sparse_apply(s, x.U, transpose=True)
    sv, stu = np.zeros((ent.n, x.r)), np.zeros((ent.m, x.r))
    _kernels.apply_pair(_threads(), ent.n, ent.m, x.r, ent.row_offsets, ent.col_offsets,
                        ent.cols, np.ascontiguousarray(ev.error, dtype=np.float64),
                        2.0 / ent.count, x.U, x.V, sv, stu)
    op_counter.add(4 * ent.count * x.r)
    return _fortran(sv), _fortran(stu)


def mean_squared_error(x, entries):
    """MSE of the model against values on an arbitrary pattern (validation sets)."""
    if entries.count == 0:
        raise ContractViolationError("empty evaluation pattern")
    e = masked_values(x, entries) - entries.vals
    return float(e @ e) / entries.count


def riemannian_gradient(problem, ev):
    """Gradient of the objective in the quotient metric at the evaluated point ev.

    Writing S for the scaled residual 2 e / |Omega| on the pattern,
    R = W diag(sig) ZT and A' = WT (UT S V) Z, the components are

        grad_U = (S V Z diag(sig)^{-1} - U W C_U) WT
        grad_R = UT S V
        grad_V = (ST U W diag(sig)^{-1} - V Z C_V) ZT

    with C_U and C_V the ``normal_coordinates`` of A' diag(sig)^{-1} and
    A'T diag(sig)^{-1}: the tangent projection of the Euclidean gradient
    over the weights, horizontal by construction.  Raises where
    ``check_weights`` does.
    """
    x = ev.point
    check_weights(x)
    sv, stu = residual_products(problem, ev)
    w, sig, z = x.svd
    dr = x.U.T @ sv
    a = w.T @ dr @ z
    du = (sv @ (z / sig) - x.U @ (w @ normal_coordinates(x, a / sig))) @ w.T
    dv = (stu @ (w / sig) - x.V @ (z @ normal_coordinates(x, a.T / sig))) @ z.T
    return HorizontalVector._at(x, du, dr, dv)


def direction_values(x, xi, entries):
    """Directional derivative of the model on the pattern:

        P_Omega(dU R VT + U dR VT + U R dVT)  evaluated entrywise,

    one 2r-wide gather of [dU R + U dR | U R] against [V | dV].
    """
    if x.n != entries.n or x.m != entries.m:
        raise DimensionError("point shape does not match the pattern grid")
    left = np.hstack([xi.dU @ x.R + x.U @ xi.dR, x.U @ x.R])
    right = np.hstack([x.V, xi.dV])
    vals = _gather_sum(left, right, entries)
    op_counter.add(4 * entries.count * x.r)
    return vals


def initial_step(problem, ev, xi):
    """Exact minimizer of the linearized objective along xi at the evaluated point ev.

    Solves min_s |e + s d|^2 where e is the plain model-minus-data error
    and d the directional derivative of the model on the pattern, giving
    s* = -(e . d) / (d . d), whatever its sign: a direction along which
    the linearized model predicts no decrease gives s* <= 0 (an exact
    fit gives -0.0).  Raises only on a degenerate direction (d = 0).
    """
    if not isinstance(xi, TangentTriple):
        raise TypeError("initial_step expects a tangent vector")
    d = direction_values(ev.point, xi, problem.entries)
    dd = float(d @ d)
    if dd == 0.0:
        raise DegenerateDirectionError("direction vanishes on the observed entries")
    return -float(ev.error @ d) / dd
