"""The compiled sparse kernels: how they are built and loaded, the checks
made before each call, and bit-for-bit agreement with the numpy kernels."""

import bisect
import ctypes
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _geometry import random_horizontal
from r3mc import (
    CompletionProblem,
    CounterRng,
    DimensionError,
    ObservedEntries,
    PointEvaluation,
    SparseResidual,
    direction_values,
    masked_values,
    random_point,
    sparse_apply,
)
from r3mc import problem as problem_module
from r3mc.data_io import sample_mask

LIBRARY_NAME = re.compile(r"_kernels\.[0-9a-f]{16}\.so")


def test_native_kernels_are_loaded():
    # a path that is silently absent tests nothing, so this fails, not skips
    lib = problem_module._kernels
    assert lib is not None, "the compiled kernels did not load"
    assert LIBRARY_NAME.fullmatch(Path(lib._name).name)


# --- building and loading


def test_loader_builds_once_into_its_cache(tmp_path, monkeypatch):
    assert problem_module._load_kernels(tmp_path) is not None
    (library,) = tmp_path.iterdir()  # no temporary file is left beside it
    assert LIBRARY_NAME.fullmatch(library.name)
    # a second load reads the build, with no compiler on the path
    monkeypatch.setenv("PATH", str(tmp_path / "no-compiler"))
    assert problem_module._load_kernels(tmp_path) is not None
    assert list(tmp_path.iterdir()) == [library]


def test_loader_builds_privately_when_its_cache_cannot_be_written(tmp_path, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    private = tmp_path / "tmp"
    private.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(private))
    assert problem_module._load_kernels(blocker / "__pycache__") is not None
    # the private directory goes once the library is loaded
    assert list(private.iterdir()) == []


@pytest.mark.parametrize("failure", ["no compiler", "failed build"])
def test_loader_gives_none_and_leaves_nothing_without_a_build(tmp_path, monkeypatch, failure):
    cache = tmp_path / "cache"
    if failure == "no compiler":
        monkeypatch.setenv("PATH", str(tmp_path / "no-compiler"))
    else:
        monkeypatch.setattr(problem_module, "_CFLAGS",
                            problem_module._CFLAGS + ("-no-such-flag",))
    assert problem_module._load_kernels(cache) is None
    assert list(cache.iterdir()) == []


def test_concurrent_loads_each_get_a_whole_library(tmp_path):
    libraries = [None] * 3

    def load(k):
        libraries[k] = problem_module._load_kernels(tmp_path)

    threads = [threading.Thread(target=load, args=(k,)) for k in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert all(lib is not None for lib in libraries)
    (library,) = tmp_path.iterdir()
    assert LIBRARY_NAME.fullmatch(library.name)


# --- the checks before each call, on both paths


def test_direction_values_rejects_a_point_off_the_pattern_grid(kernel_path):
    rows, cols = sample_mask(50, 40, 300, 1)
    e = ObservedEntries(50, 40, rows, cols, np.ones(300))
    x = random_point(3, 4, 2, 0)
    xi = random_horizontal(x, 1)
    with pytest.raises(DimensionError):
        direction_values(x, xi, e)
    with pytest.raises(DimensionError):
        masked_values(x, e)


def test_sparse_apply_rejects_an_operand_that_is_not_a_matrix(kernel_path):
    rows, cols = sample_mask(50, 40, 300, 2)
    s = SparseResidual(ObservedEntries(50, 40, rows, cols, np.ones(300)), np.ones(300))
    for transpose, size in ((False, 40), (True, 50)):
        for shape in ((size,), (size, 2, 1), (size - 1, 2), (size + 1, 2)):
            with pytest.raises(DimensionError):
                sparse_apply(s, np.ones(shape), transpose)


def test_residual_products_reject_an_evaluation_off_the_pattern(kernel_path):
    rows, cols = sample_mask(50, 40, 300, 5)
    p = CompletionProblem(ObservedEntries(50, 40, rows, cols, np.ones(300)), 2)
    for x, size in ((random_point(50, 40, 2, 0), 299), (random_point(50, 40, 2, 0), 301),
                    (random_point(40, 50, 2, 0), 300), (random_point(50, 41, 2, 0), 300)):
        with pytest.raises(DimensionError):
            problem_module.residual_products(p, PointEvaluation(x, np.ones(size), 0.0))


def test_gather_rejects_factor_blocks_off_the_pattern_grid(kernel_path):
    rows, cols = sample_mask(50, 40, 300, 3)
    e = ObservedEntries(50, 40, rows, cols, np.ones(300))
    for left, right in (((50, 2), (40, 3)), ((49, 2), (40, 2)), ((50, 2), (41, 2)),
                        ((50,), (40,)), ((50, 2, 1), (40, 2, 1))):
        with pytest.raises(DimensionError):
            problem_module._gather_sum(np.ones(left), np.ones(right), e)


def test_pattern_indices_are_read_only():
    e = ObservedEntries(4, 3, [3, 0, 3, 1], [0, 2, 2, 1], [1.0, 2.0, 3.0, 4.0])
    for index in (e.rows, e.cols):
        with pytest.raises(ValueError):
            index[0] = 2**40


def test_native_kernels_refuse_buffers_of_another_dtype_or_layout():
    lib = problem_module._kernels
    assert lib is not None, "the compiled kernels did not load"
    e = ObservedEntries(4, 3, [3, 0, 3, 1], [0, 2, 2, 1], [1.0, 2.0, 3.0, 4.0])
    left, right, out = np.ones((4, 2)), np.ones((3, 2)), np.empty(4)
    lib.gather_sum(2, 4, 2, e.row_offsets, e.cols, left, right, out)
    assert out.tolist() == [2.0] * 4
    for args in ((e.row_offsets.astype(np.int32), e.cols, left, right, out),
                 (e.row_offsets, e.cols.astype(np.int32), left, right, out),
                 (e.row_offsets, e.cols, np.asfortranarray(np.ones((4, 3)))[:, :2], right, out),
                 (e.row_offsets, e.cols, left, right.astype(np.float32), out),
                 (e.row_offsets, e.cols, left, right, np.empty(4, dtype=np.float32))):
        with pytest.raises(ctypes.ArgumentError):
            lib.gather_sum(2, 4, 2, *args)
    err, u, v = np.ones(4), np.ones((4, 2)), np.ones((3, 2))
    sv, stu = np.zeros((4, 2)), np.zeros((3, 2))
    lib.apply_pair(2, 4, 3, 2, e.row_offsets, e.col_offsets, e.cols, err, 0.5, u, v, sv, stu)
    assert sv.tolist() == [[0.5, 0.5], [0.5, 0.5], [0.0, 0.0], [1.0, 1.0]]
    assert stu.tolist() == [[0.5, 0.5], [0.5, 0.5], [1.0, 1.0]]
    offsets = (e.row_offsets, e.col_offsets, e.cols)
    read_only = np.zeros((3, 2))
    read_only.flags.writeable = False
    for args in ((e.row_offsets, e.col_offsets.astype(np.int32), e.cols, err, 0.5, u, v, sv, stu),
                 (*offsets, err.astype(np.float32), 0.5, u, v, sv, stu),
                 (*offsets, err, "0.5", u, v, sv, stu),
                 (*offsets, err, 0.5, np.asfortranarray(np.ones((4, 3)))[:, :2], v, sv, stu),
                 (*offsets, err, 0.5, u, v.astype(np.float32), sv, stu),
                 (*offsets, err, 0.5, u, v, sv, read_only)):
        with pytest.raises(ctypes.ArgumentError):
            lib.apply_pair(2, 4, 3, 2, *args)
    with pytest.raises(ctypes.ArgumentError):  # a thread count is an int
        lib.apply_pair(2.0, 4, 3, 2, *offsets, err, 0.5, u, v, sv, stu)


def test_sparse_apply_takes_an_operand_in_any_layout_or_dtype(kernel_path):
    rows, cols = sample_mask(30, 20, 200, 4)
    e = ObservedEntries(30, 20, rows, cols, np.ones(200))
    s = SparseResidual(e, CounterRng(5).standard_normal(200))
    ints = np.arange(60).reshape(20, 3) % 7 - 3
    want = sparse_apply(s, ints.astype(np.float64))
    wide = np.zeros((20, 6))
    wide[:, ::2] = ints
    for dense in (ints, np.asfortranarray(ints), wide[:, ::2]):
        got = sparse_apply(s, dense)
        assert got.tobytes() == want.tobytes() and got.strides == want.strides


# --- the two paths against each other


def kernel_outputs(x, xi, e, s):
    """Every kernel's output at (x, xi) on e, with its strides; the
    gradient's pair of products, with s's values as the error, needs a
    nonempty pattern."""
    outputs = [masked_values(x, e), direction_values(x, xi, e),
               sparse_apply(s, x.V), sparse_apply(s, x.U, transpose=True)]
    if e.count:
        ev = PointEvaluation(x, s.vals, 0.0)
        outputs += problem_module.residual_products(CompletionProblem(e, x.r), ev)
    return [(a.tobytes(), a.shape, a.strides) for a in outputs]


@pytest.mark.parametrize("n, m, r", [(200, 300, 40), (200, 300, 1)])
def test_kernels_agree_across_paths_bit_for_bit(monkeypatch, n, m, r):
    x = random_point(n, m, r, n + r)
    xi = random_horizontal(x, r)
    rng = CounterRng(r)
    count = min(n * m // 2, 3 * r * (n + m - r))
    # a random pattern, one that leaves the last rows and columns empty,
    # and the empty pattern
    half = sample_mask(n // 2, m // 2, n * m // 8, 7)
    patterns = [ObservedEntries(n, m, *sample_mask(n, m, count, 6), rng.standard_normal(count)),
                ObservedEntries(n, m, *half, rng.standard_normal(half[0].size)),
                ObservedEntries(n, m, [], [], [])]
    for e in patterns:
        s = SparseResidual(e, rng.standard_normal(e.count))
        native = kernel_outputs(x, xi, e, s)
        with monkeypatch.context() as mp:
            mp.setattr(problem_module, "_kernels", None)
            assert kernel_outputs(x, xi, e, s) == native


def power_law_pattern():
    """A 300 x 200 pattern with power-law row degrees over shuffled rows,
    200 down to 3."""
    n, m = 300, 200
    rng = np.random.default_rng(9)
    degrees = rng.permutation((m / np.arange(1, n + 1) ** 0.7).astype(np.int64))
    cells = np.concatenate([i * m + rng.choice(m, size=d, replace=False)
                            for i, d in enumerate(degrees)])
    rows, cols = np.divmod(cells, m)
    return ObservedEntries(n, m, rows, cols, rng.standard_normal(rows.size))


def uneven_patterns():
    """Patterns whose shares come out uneven: power-law rows; empty rows and
    columns, first and last among them; one dense row on a grid of fewer
    rows than the threads tried; one dense column likewise; no entries."""
    rng = np.random.default_rng(10)
    rows, cols = sample_mask(60, 50, 900, 11)
    keep = (rows % 3 != 0) & (cols % 4 != 0) & (rows < 55) & (cols < 47)
    rows, cols = rows[keep], cols[keep]
    dense_row = (np.r_[[2] * 120, 0], np.r_[np.arange(120), 7])
    dense_col = (np.r_[np.arange(120), 7], np.r_[[2] * 120, 0])
    return {"power-law": power_law_pattern(),
            "empty rows and columns": ObservedEntries(60, 50, rows, cols,
                                                      rng.standard_normal(rows.size)),
            "dense row": ObservedEntries(4, 120, *dense_row, rng.standard_normal(121)),
            "dense column": ObservedEntries(120, 4, *dense_col, rng.standard_normal(121)),
            "empty": ObservedEntries(30, 20, [], [], [])}


def test_kernel_bits_do_not_depend_on_the_optimisation_level(tmp_path, monkeypatch):
    # a flag that let the compiler reassociate a sum would show here
    monkeypatch.setattr(problem_module, "_CFLAGS",
                        ("-O0", "-ffp-contract=off", "-shared", "-fPIC"))
    unoptimised = problem_module._load_kernels(tmp_path)
    optimised = problem_module._kernels
    assert unoptimised is not None and optimised is not None
    assert unoptimised.openmp() == optimised.openmp() == 1  # both carry the OpenMP flag
    e = power_law_pattern()
    s = SparseResidual(e, np.random.default_rng(9).standard_normal(e.count))
    for r in (1, 10, 40):
        x = random_point(e.n, e.m, r, r)
        xi = random_horizontal(x, r + 1)
        with monkeypatch.context() as mp:
            mp.setattr(problem_module, "_kernels", unoptimised)
            want = kernel_outputs(x, xi, e, s)
        assert kernel_outputs(x, xi, e, s) == want


@pytest.mark.parametrize("name", list(uneven_patterns()))
def test_kernel_bits_do_not_depend_on_the_thread_count(monkeypatch, name):
    e = uneven_patterns()[name]
    s = SparseResidual(e, np.random.default_rng(12).standard_normal(e.count))
    for r in sorted({1, min(e.n, e.m, 10)}):
        x = random_point(e.n, e.m, r, r)
        xi = random_horizontal(x, r + 1)
        outputs = set()
        for threads in (1, 2, 3, 5):
            monkeypatch.setattr(problem_module, "_THREADS", threads)
            outputs.add(repr(kernel_outputs(x, xi, e, s)))
        assert len(outputs) == 1


@given(total=st.integers(0, 2**63 - 1), cuts=st.lists(st.integers(0, 2**63 - 1), max_size=6),
       size=st.integers(1, 2**31 - 1), t=st.integers(0, 2**31 - 1))
@example(total=2**63 - 1, cuts=[2**62, 2**63 - 1], size=2**31 - 1, t=2**31 - 2)
@example(total=2**63 - 1, cuts=[], size=5, t=4)
def test_shares_split_the_entries_exactly(total, cuts, size, t):
    # share t starts at the first row whose offset reaches floor(total t /
    # size), with no overflow for any total below 2**63
    lib = problem_module._kernels
    assert lib is not None, "the compiled kernels did not load"
    offsets = np.array(sorted([0, total, *(c % (total + 1) for c in cuts)]), dtype=np.int64)
    n, t = offsets.size - 1, t % (size + 1)
    want = n if t == size else bisect.bisect_left(offsets[:n].tolist(), total * t // size)
    assert lib.share_start(offsets, n, t, size) == want


def test_serial_build_when_openmp_does_not_build(tmp_path, monkeypatch):
    monkeypatch.setattr(problem_module, "_OPENMP_FLAGS", ("-fno-such-openmp-flag",))
    serial = problem_module._load_kernels(tmp_path)
    assert serial is not None and serial.openmp() == 0
    (library,) = tmp_path.iterdir()  # the failed build leaves nothing
    assert LIBRARY_NAME.fullmatch(library.name)
    with monkeypatch.context() as mp:  # the cached serial library loads with no build
        mp.setattr(problem_module.subprocess, "run", lambda *a, **k: pytest.fail("cc ran"))
        again = problem_module._load_kernels(tmp_path)
    assert again is not None and again.openmp() == 0
    threaded = problem_module._kernels
    assert threaded is not None and threaded.openmp() == 1
    for e in uneven_patterns().values():
        s = SparseResidual(e, np.random.default_rng(13).standard_normal(e.count))
        r = min(e.n, e.m, 3)
        x = random_point(e.n, e.m, r, r)
        xi = random_horizontal(x, r + 1)
        monkeypatch.setattr(problem_module, "_THREADS", 3)
        want = kernel_outputs(x, xi, e, s)
        with monkeypatch.context() as mp:
            mp.setattr(problem_module, "_kernels", serial)
            assert kernel_outputs(x, xi, e, s) == want


FORKED = """
import concurrent.futures, hashlib, multiprocessing
from r3mc import SolverConfig, SyntheticSpec, cg_solve, problem, random_point, synthesize

def solve(seed):
    p, _ = synthesize(SyntheticSpec(200, 150, 3, 3.0), seed)
    x, _ = cg_solve(p, random_point(200, 150, 3, seed + 1), SolverConfig(max_iterations=20))
    return hashlib.sha256(x.U.tobytes() + x.R.tobytes() + x.V.tobytes()).hexdigest()

if __name__ == "__main__":
    problem._THREADS = max(problem._THREADS, 2)  # start the parent's OpenMP threads
    here = solve(3)
    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(2, mp_context=context) as pool:
        there = list(pool.map(solve, [3, 3]))
    print(there == [here, here])
"""


def test_forked_workers_run_the_kernels_after_the_parent_did():
    # OpenMP's threads do not survive a fork, and a team of them would
    # deadlock the child; the subprocess bounds a hang, which has no
    # timeout in the suite, and its session holds the pool's workers
    proc = subprocess.Popen([sys.executable, "-c", FORKED], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True,
                            env={**os.environ, "PYTHONPATH": str(Path(problem_module.__file__)
                                                                 .parents[1])})
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a forked worker hung in the kernels")
    assert proc.returncode == 0, err
    assert out.split() == ["True"]


SOLVES = """
import dataclasses, hashlib
from r3mc import (SolverConfig, SyntheticSpec, cg_solve, random_point,
                  rank_incremental_solve, synthesize)
p, _ = synthesize(SyntheticSpec(60, 70, 4, 3.0, condition_number=100.0), 5)
x, trace = cg_solve(p, random_point(60, 70, 4, 6), SolverConfig(max_iterations=40))
step, steps = rank_incremental_solve(p, SolverConfig(max_iterations=20), seed=7)
h = hashlib.sha256()
for y in (x, step.point):
    for f in (y.U, y.R, y.V):
        h.update(f.tobytes())
for t in [trace] + [s.trace for s in steps]:
    h.update(repr([dataclasses.replace(row, time_s=0.0) for row in t.rows]).encode())
    h.update(repr((t.initial_cost, t.reason)).encode())
digest = h.hexdigest()
"""


def seeded_solves_digest():
    """sha256 over the factor bytes and trace rows of a seeded cold solve
    and a seeded homotopy, wall-clock fields cleared."""
    namespace = {}
    exec(SOLVES, namespace)
    return namespace["digest"]


def test_seeded_solves_are_byte_identical_across_paths(monkeypatch):
    native = seeded_solves_digest()
    monkeypatch.setattr(problem_module, "_kernels", None)
    assert seeded_solves_digest() == native


def test_without_a_compiler_the_package_solves_through_numpy(tmp_path):
    shutil.copytree(Path(problem_module.__file__).parent, tmp_path / "r3mc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PATH": str(tmp_path / "no-compiler"), "PYTHONPATH": str(tmp_path)}
    script = SOLVES + "from r3mc import problem\nprint(problem._kernels is None, digest)\n"
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", seeded_solves_digest()]
    # no library and no temporary file
    assert not list((tmp_path / "r3mc" / "__pycache__").glob("*.so"))
