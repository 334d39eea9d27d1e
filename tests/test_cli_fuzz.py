"""Property test of the command line: the files the package writes, mutated,
end every command in a documented exit code with at most one message.

The base files are a ``synth`` problem, a ratings file and its
``movielens-prep`` splits on a 12 x 10 grid.  Each example mutates some
of them (truncation; huge, zero, negative and non-finite numbers; swapped,
extra, dropped and repeated fields or lines), then runs one command in
process on them.  A ``--val`` or ``--test`` file that shares a cell with
the training data must be a usage error whatever else is wrong.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from r3mc import (
    ConfigError,
    DimensionError,
    ParseError,
    cli,
    read_matrix_market,
    sample_mask,
)

N_USERS, N_ITEMS = 12, 10
EXIT_CODES = (0, 2, 3, 4, 5)
SPECIAL_NUMBERS = ("0", "-1", "-7", "2.5", "1e400", "nan", "inf", "-inf", "x", "",
                   str(2**62), str(2**63), str(10**30))


def run(argv):
    """(exit code, stderr) of one in-process command; its warnings (a poor
    warm start on these small grids) are recorded, not shown."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def base_files(tmp_path_factory):
    """name -> text of each file the mutations start from."""
    root = tmp_path_factory.mktemp("base")
    rows, cols = sample_mask(N_USERS, N_ITEMS, 100, 3)
    ratings = root / "ratings.dat"
    ratings.write_text("".join(
        "%d::%d::%d::%d\n" % (u + 1, i + 1, (u * i) % 5 + 1, 978300000 + k)
        for k, (u, i) in enumerate(zip(rows, cols))), encoding="utf-8")
    assert run(["synth", "--n", N_USERS, "--m", N_ITEMS, "--rank", 2, "--os", 2,
                "--seed", 1, "--out", root / "gen"])[0] == 0
    assert run(["movielens-prep", "--ratings", ratings, "--out-dir", root / "splits",
                "--seed", 1, "--fractions", "0.7,0.15,0.15"])[0] == 0
    texts = {name: (root / "splits" / (name + ".mtx")).read_text()
             for name in ("train", "val", "test")}
    texts["entries"] = (root / "gen" / "entries.mtx").read_text()
    texts["ratings"] = ratings.read_text()
    # the validation entries plus one training entry: a partial overlap
    head, size, *val_lines = texts["val"].splitlines(keepends=True)
    n, m, count = size.split()
    texts["val_overlap"] = "".join([head, "%s %s %d\n" % (n, m, int(count) + 1)]
                                   + val_lines + texts["train"].splitlines(True)[2:3])
    return texts


def fields_of(line):
    sep = "::" if "::" in line else " "
    return sep, line.rstrip("\n").split(sep)


# (kind, position, number) of one mutation; see mutate
mutation = st.tuples(st.sampled_from(("truncate", "number", "size", "swap", "extra",
                                      "drop", "repeat")),
                     st.integers(0, 10**6), st.sampled_from(SPECIAL_NUMBERS))


def mutate(text, kind, k, number):
    """``text`` with one mutation applied at position ``k`` (taken modulo
    the length it indexes)."""
    if kind == "truncate":
        return text[:k % (len(text) + 1)]
    lines = text.splitlines(keepends=True)
    if not lines:
        return text
    if kind == "size":
        # the size line of a Matrix Market file, else the first line
        k = 1 if len(lines) > 1 and lines[0].startswith("%%") else 0
    i = k % len(lines)
    sep, fields = fields_of(lines[i])
    if kind in ("number", "size"):
        fields[(k // len(lines)) % len(fields)] = number
    elif kind == "swap" and len(fields) > 1:
        a = (k // len(lines)) % len(fields)
        fields[a], fields[a - 1] = fields[a - 1], fields[a]
    elif kind == "extra":
        fields.append("7")
    elif kind == "drop":
        return "".join(lines[:i] + lines[i + 1:])
    elif kind == "repeat":
        return "".join(lines[:i + 1] + lines[i:])
    lines[i] = sep.join(fields) + "\n"
    return "".join(lines)


def cells(path):
    """The (row, column) cells of a readable coordinate file, else None."""
    try:
        entries = read_matrix_market(path)
    except (ConfigError, DimensionError, MemoryError, ParseError):
        return None
    return set(zip(entries.rows.tolist(), entries.cols.tolist()))


@st.composite
def command(draw):
    """(argv template, {file name: (base name, mutations)}) of one run."""
    # half the files stay as written, so that some runs reach a solve
    mutations = st.one_of(st.just([]), st.lists(mutation, min_size=1, max_size=2))
    which = draw(st.sampled_from(("complete", "complete", "complete", "movielens-prep",
                                  "bench")))
    if which == "movielens-prep":
        fractions = draw(st.sampled_from(("0.7,0.15,0.15", "1,0,0", "0.5,0,0.5")))
        return (["movielens-prep", "--ratings", "{ratings}", "--out-dir", "{out}",
                 "--seed", draw(st.integers(0, 3)), "--fractions", fractions],
                {"ratings": ("ratings", draw(mutations))})
    if which == "bench":
        return (["bench", "--movielens", "{ratings}", "--ranks", draw(st.sampled_from((1, 2))),
                 "--seeds", 1, "--splits", 1, "--max-iters", 10, "--out-dir", "{out}"],
                {"ratings": ("ratings", draw(mutations))})
    files = {"data": (draw(st.sampled_from(("train", "entries"))), draw(mutations))}
    argv = ["complete", "--data", "{data}", "--seed", draw(st.integers(0, 3)),
            "--max-iters", draw(st.integers(5, 30))]
    argv += draw(st.sampled_from((["--rank", 1], ["--rank", 2], ["--rank-updates", 2],
                                  ["--rank-updates", 3],
                                  ["--rank", 2, "--warm-start-cols", 6])))
    for option in ("val", "test"):
        base = draw(st.sampled_from((None, "val", "test", "train", "entries",
                                     "val_overlap")))
        if base is not None:
            files[option] = (base, draw(mutations))
            argv += ["--" + option, "{%s}" % option]
    return argv, files


@settings(max_examples=200)
@given(command())
def test_mutated_files_end_in_an_exit_code_with_at_most_one_message(base_files, case):
    template, files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": Path(tmp) / "out"}
        for name, (base, mutations) in files.items():
            text = base_files[base]
            for kind, k, number in mutations:
                text = mutate(text, kind, k, number)
            paths[name] = Path(tmp) / (name + ".mtx")
            paths[name].write_text(text, encoding="utf-8")
        argv = [a.format(**paths) if isinstance(a, str) else a for a in template]
        code, err = run(argv)
        assert code in EXIT_CODES
        assert "Traceback" not in err
        assert sum(line.startswith("error:") for line in err.splitlines()) <= 1
        if template[0] == "complete":
            train = cells(paths["data"])
            for option in ("val", "test"):
                held_out = cells(paths[option]) if option in paths else None
                if train and held_out and train & held_out:
                    assert code == 2, "overlapping --%s was not rejected" % option
