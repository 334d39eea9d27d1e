"""Generators, ratings parsing, splits, and Matrix Market round trips."""

import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from r3mc import (
    CompletionProblem,
    ConfigError,
    ContractViolationError,
    CounterRng,
    DimensionError,
    ObservedEntries,
    ParseError,
    RatingsDataset,
    SyntheticSpec,
    degrees_of_freedom,
    parse_movielens,
    read_dense_matrix_market,
    read_matrix_market,
    required_count,
    sample_mask,
    split_train_val_test,
    synth_conditioned,
    synth_gaussian,
    synthesize,
    to_entries,
    write_dense_matrix_market,
    write_matrix_market,
)
from r3mc import data_io
from r3mc.data_io import _opened, _read_header, check_fractions


def test_counting_helpers():
    assert degrees_of_freedom(10000, 10000, 10) == 199900
    assert required_count(10000, 10000, 10, 2.1) == 419790
    assert degrees_of_freedom(5, 7, 2) == 2 * (5 + 7 - 2)


def test_synthetic_spec_validation():
    spec = SyntheticSpec(100, 80, 4, 3.0)
    assert spec.count == required_count(100, 80, 4, 3.0)
    with pytest.raises(ConfigError):
        SyntheticSpec(0, 80, 4, 3.0)
    with pytest.raises(ConfigError):
        SyntheticSpec(100, 80, 0, 3.0)
    with pytest.raises(ConfigError):
        SyntheticSpec(100, 80, 81, 3.0)
    with pytest.raises(ConfigError):
        SyntheticSpec(100, 80, 4, 0.0)
    with pytest.raises(ConfigError):
        SyntheticSpec(10, 10, 5, 4.0)
    with pytest.raises(ConfigError):
        SyntheticSpec(100, 80, 4, 3.0, condition_number=0.5)
    with pytest.raises(ConfigError, match="a rank-one matrix cannot have condition"):
        SyntheticSpec(100, 80, 1, 3.0, condition_number=5.0)
    # 0.01 * 19 degrees of freedom rounds to no entries
    with pytest.raises(ConfigError) as info:
        SyntheticSpec(10, 10, 1, 0.01)
    assert str(info.value) == "oversampling 0.01 gives no entries on the 10 x 10 grid at rank 1"
    assert SyntheticSpec(10, 10, 1, 0.03).count == 1
    assert SyntheticSpec(100, 80, 1, 3.0, condition_number=1.0).rank == 1


def test_synth_gaussian_is_deterministic_with_unit_moments():
    left, right = synth_gaussian(200, 100, 5, 11)
    left2, right2 = synth_gaussian(200, 100, 5, 11)
    assert np.array_equal(left, left2) and np.array_equal(right, right2)
    assert left.shape == (200, 5) and right.shape == (5, 100)
    pool = np.concatenate([left.ravel(), right.ravel()])
    assert abs(pool.mean()) <= 5 / np.sqrt(pool.size)
    assert abs(pool.std() - 1.0) <= 0.05
    assert np.linalg.matrix_rank(left @ right) == 5


def test_synth_conditioned_spectrum_matches_the_recipe():
    for cn in (1.0, 10.0, 1e6, 1e12):
        left, right = synth_conditioned(60, 40, 8, cn, 3)
        sig = np.linalg.svd(left @ right, compute_uv=False)[:8]
        want = np.logspace(-np.log10(cn), 0.0, 8)[::-1]
        assert np.allclose(sig, want, rtol=1e-10, atol=1e-13)
        # sigma_min carries an absolute error near eps * sigma_max, which
        # caps how sharply the ratio itself can be checked
        assert sig[0] / sig[-1] == pytest.approx(cn, rel=max(1e-8, 1e-13 * cn))


def test_synth_conditioned_guards():
    with pytest.raises(ConfigError):
        synth_conditioned(10, 10, 2, 0.9, 0)
    with pytest.raises(ConfigError):
        synth_conditioned(10, 10, 1, 2.0, 0)
    left, right = synth_conditioned(10, 10, 1, 1.0, 0)
    sig = np.linalg.svd(left @ right, compute_uv=False)
    assert sig[0] == pytest.approx(1.0, rel=1e-12)


def test_sample_mask_boundaries_and_determinism():
    rows, cols = sample_mask(6, 7, 42, 0)
    assert rows.tolist() == np.repeat(np.arange(6), 7).tolist()
    assert cols.tolist() == np.tile(np.arange(7), 6).tolist()
    r1, c1 = sample_mask(30, 20, 100, 5)
    r2, c2 = sample_mask(30, 20, 100, 5)
    assert np.array_equal(r1, r2) and np.array_equal(c1, c2)
    lin = r1 * 20 + c1
    assert np.unique(lin).size == 100
    assert np.all(np.diff(lin) > 0)
    assert r1.min() >= 0 and r1.max() < 30 and c1.min() >= 0 and c1.max() < 20
    one_r, one_c = sample_mask(4, 4, 1, 1)
    assert one_r.size == 1
    with pytest.raises(ConfigError):
        sample_mask(4, 4, 0, 0)
    with pytest.raises(ConfigError):
        sample_mask(4, 4, 17, 0)


def test_sample_mask_splits_the_cells_of_a_2_63_cell_grid_in_either_orientation():
    cells = CounterRng(0).sample_without_replacement(2**63, 5)
    rows, cols = sample_mask(1, 2**63, 5, 0)
    assert rows.dtype == cols.dtype == np.int64
    assert rows.tolist() == [0] * 5 and cols.tolist() == cells.tolist()
    rows, cols = sample_mask(2**63, 1, 5, 0)
    assert rows.tolist() == cells.tolist() and cols.tolist() == [0] * 5
    # a larger grid is the package's grid error, before any draw
    for n, m in ((2**63, 2), (2, 2**63)):
        with pytest.raises(DimensionError, match="exceeds 2\\*\\*63"):
            sample_mask(n, m, 5, 0)


def test_synthesize_values_match_the_factor_product():
    spec = SyntheticSpec(40, 50, 3, 4.0)
    problem, (left, right) = synthesize(spec, 9)
    assert problem.rank == 3
    assert problem.entries.count == spec.count
    dense = left @ right
    want = dense[problem.entries.rows, problem.entries.cols]
    assert np.allclose(problem.entries.vals, want, rtol=1e-12, atol=1e-14)
    problem2, _ = synthesize(spec, 9)
    assert np.array_equal(problem.entries.vals, problem2.entries.vals)
    assert np.array_equal(problem.entries.rows, problem2.entries.rows)


@pytest.mark.parametrize("rank", [1, 3, 10, 17, 40])
def test_synthesize_values_in_chunks_are_one_einsum(monkeypatch, rank):
    def check(count):
        spec = SyntheticSpec(100, 100, rank, count / degrees_of_freedom(100, 100, rank))
        assert spec.count == count
        problem, (left, right) = synthesize(spec, count)
        e = problem.entries
        whole = np.einsum("ij,ji->i", left[e.rows], right[:, e.cols])
        assert e.vals.tobytes() == whole.tobytes()

    check(data_io._VALUE_CHUNK + 1)
    chunk = 16
    monkeypatch.setattr(data_io, "_VALUE_CHUNK", chunk)
    for count in (chunk - 1, chunk, chunk + 1, 3 * chunk + 5, 40 * chunk + 5):
        check(count)


def test_synthesize_peaks_at_three_times_its_triplets():
    tracemalloc.start()
    try:
        problem, _ = synthesize(SyntheticSpec(2000, 2000, 10, 4.0), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    e = problem.entries
    assert peak <= 3 * (e.rows.nbytes + e.cols.nbytes + e.vals.nbytes)


def test_synthesize_conditioned_path():
    spec = SyntheticSpec(30, 30, 4, 3.0, condition_number=100.0)
    problem, (left, right) = synthesize(spec, 2)
    sig = np.linalg.svd(left @ right, compute_uv=False)[:4]
    assert sig[0] / sig[-1] == pytest.approx(100.0, rel=1e-8)


def test_parse_movielens_single_line():
    ds = parse_movielens(["1::1193::5::978300760"])
    assert ds.n_users == 1 and ds.n_items == 1
    assert ds.rows.tolist() == [0] and ds.cols.tolist() == [0]
    assert ds.ratings.tolist() == [5.0]
    assert ds.user_id_range == 1 and ds.item_id_range == 1193
    assert ds.count == 1


def test_parse_movielens_reindexes_sparse_ids_densely():
    lines = [
        "5::7::3::100",
        "2::3::4::200",
        "",
        "5::3::2.5::300",
    ]
    ds = parse_movielens(lines)
    assert ds.n_users == 2 and ds.n_items == 2
    # raw-id order: user 2 -> 0, user 5 -> 1; item 3 -> 0, item 7 -> 1
    assert ds.rows.tolist() == [1, 0, 1]
    assert ds.cols.tolist() == [1, 0, 0]
    assert ds.user_id_range == 5 and ds.item_id_range == 7
    entries = to_entries(ds)
    assert entries.n == 2 and entries.m == 2 and entries.count == 3


def test_parse_movielens_rejects_malformed_input():
    with pytest.raises(ParseError, match="line 1"):
        parse_movielens(["1::2::3"])
    with pytest.raises(ParseError, match="line 2"):
        parse_movielens(["1::2::3::4", "1::x::3::4"])
    with pytest.raises(ParseError, match="outside"):
        parse_movielens(["1::2::6::4"])
    with pytest.raises(ParseError, match="outside"):
        parse_movielens(["1::2::0::4"])
    with pytest.raises(ParseError, match="positive"):
        parse_movielens(["0::2::3::4"])
    with pytest.raises(ParseError, match="no ratings"):
        parse_movielens([])


@pytest.mark.parametrize("line", [
    "1::2::3::99999999999999999999",
    "1::2::3::-9223372036854775809",
    "9223372036854775808::2::3::4",
    "1::18446744073709551616::3::4",
])
def test_parse_movielens_rejects_integers_beyond_64_bits(line):
    with pytest.raises(ParseError) as info:
        parse_movielens(["1::2::3::4", line])
    assert (str(info.value), info.value.line) == (
        "line 2: integer field outside the 64-bit range", 2)


def test_parse_movielens_reads_the_64_bit_extremes():
    ds = parse_movielens(["%d::%d::3::%d" % (2**63 - 1, 2**63 - 1, -2**63),
                          "1::1::4::%d" % (2**63 - 1)])
    assert ds.user_id_range == ds.item_id_range == 2**63 - 1


def test_parse_movielens_reads_files(tmp_path):
    path = tmp_path / "ratings.dat"
    path.write_text("3::10::4::1\n1::10::5::2\n", encoding="utf-8")
    ds = parse_movielens(path)
    assert ds.n_users == 2 and ds.n_items == 1
    assert ds.rows.tolist() == [1, 0]


def test_to_entries_rejects_duplicate_ratings():
    ds = parse_movielens(["1::2::3::4", "1::2::4::5"])
    with pytest.raises(ContractViolationError):
        to_entries(ds)


def random_entries(n, m, count, seed):
    rng = CounterRng(seed)
    rows, cols = sample_mask(n, m, count, seed)
    return ObservedEntries(n, m, rows, cols, rng.standard_normal(count))


def test_split_sizes_and_disjoint_union():
    entries = random_entries(20, 20, 100, 7)
    train, val, test = split_train_val_test(entries, (0.8, 0.1, 0.1), 0)
    assert (train.count, val.count, test.count) == (80, 10, 10)
    merged = ObservedEntries(
        20,
        20,
        np.concatenate([train.rows, val.rows, test.rows]),
        np.concatenate([train.cols, val.cols, test.cols]),
        np.concatenate([train.vals, val.vals, test.vals]),
    )
    assert np.array_equal(merged.rows, entries.rows)
    assert np.array_equal(merged.cols, entries.cols)
    assert np.array_equal(merged.vals, entries.vals)


def test_split_small_and_degenerate_fractions():
    entries = random_entries(5, 5, 10, 8)
    train, val, test = split_train_val_test(entries, (0.8, 0.1, 0.1), 1)
    assert (train.count, val.count, test.count) == (8, 1, 1)
    train, val, test = split_train_val_test(entries, (1.0, 0.0, 0.0), 2)
    assert (train.count, val.count, test.count) == (10, 0, 0)


def test_split_is_deterministic():
    entries = random_entries(10, 10, 40, 9)
    a = split_train_val_test(entries, (0.5, 0.25, 0.25), 3)
    b = split_train_val_test(entries, (0.5, 0.25, 0.25), 3)
    for x, y in zip(a, b):
        assert np.array_equal(x.rows, y.rows)
        assert np.array_equal(x.vals, y.vals)


def test_split_rejects_bad_fractions():
    entries = random_entries(5, 5, 10, 10)
    with pytest.raises(ConfigError):
        split_train_val_test(entries, (0.5, 0.5, 0.5), 0)
    with pytest.raises(ConfigError):
        split_train_val_test(entries, (1.2, -0.1, -0.1), 0)
    with pytest.raises(ConfigError):
        split_train_val_test(entries, (0.5, 0.5), 0)


def oracle_split_train_val_test(entries, fractions, seed):
    """The split with each part taken in permutation order, kept as the
    reference."""
    f = check_fractions(fractions)
    total = entries.count
    perm = CounterRng(seed).permutation(total)
    c1 = int(round(f[0] * total))
    c2 = int(round((f[0] + f[1]) * total))
    c1, c2 = min(c1, total), min(max(c2, c1), total)
    return tuple(
        ObservedEntries(entries.n, entries.m, entries.rows[p], entries.cols[p],
                        entries.vals[p])
        for p in (perm[:c1], perm[c1:c2], perm[c2:])
    )


def power_law_ratings(n, m, count, seed):
    """Ratings 1..5 on a pattern whose row and column degrees fall as
    powers of their rank, as in ratings data."""
    gen = np.random.default_rng(seed)

    def draw(size, exponent):
        weight = (1.0 + np.arange(size)) ** -exponent
        return gen.choice(size, count, p=weight / weight.sum())

    cells = np.unique(draw(n, 0.8) * m + draw(m, 1.0))
    vals = gen.integers(1, 6, cells.size).astype(np.float64)
    return ObservedEntries(n, m, cells // m, cells % m, vals)


@pytest.mark.parametrize("fractions", [(0.8, 0.1, 0.1), (1, 0, 0), (0, 0, 1)])
@pytest.mark.parametrize("pattern", [
    lambda: random_entries(40, 30, 500, 12),
    lambda: power_law_ratings(300, 120, 4000, 13),
], ids=["uniform", "power-law"])
def test_split_parts_match_the_permutation_order_split(pattern, fractions):
    entries = pattern()
    for seed in (0, 5):
        got = split_train_val_test(entries, fractions, seed)
        want = oracle_split_train_val_test(entries, fractions, seed)
        for g, w in zip(got, want):
            assert (g.n, g.m) == (w.n, w.m)
            for name in ("rows", "cols", "vals"):
                a, b = getattr(g, name), getattr(w, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_matrix_market_round_trip_is_bitwise_exact():
    entries = random_entries(9, 11, 30, 11)
    buf = io.StringIO()
    write_matrix_market(buf, entries)
    banner, body = buf.getvalue().split("\n", 1)
    back = read_matrix_market(io.StringIO(banner + "\n% made for a round trip\n" + body))
    assert back.n == 9 and back.m == 11
    assert np.array_equal(back.rows, entries.rows)
    assert np.array_equal(back.cols, entries.cols)
    assert np.array_equal(back.vals, entries.vals)


def test_matrix_market_interops_with_scipy():
    scipy_io = pytest.importorskip("scipy.io")
    entries = random_entries(6, 8, 20, 12)
    buf = io.StringIO()
    write_matrix_market(buf, entries)
    mat = scipy_io.mmread(io.StringIO(buf.getvalue())).toarray()
    dense = np.zeros((6, 8))
    dense[entries.rows, entries.cols] = entries.vals
    assert np.array_equal(mat, dense)


def test_matrix_market_parse_errors():
    head = "%%MatrixMarket matrix coordinate real general\n"
    with pytest.raises(ParseError, match="duplicate entry \\(2, 3\\), first seen at line 3"):
        read_matrix_market(io.StringIO(head + "4 4 2\n2 3 1.0\n2 3 2.0\n"))
    with pytest.raises(ParseError, match="expected 2 entries, found 1"):
        read_matrix_market(io.StringIO(head + "4 4 2\n2 3 1.0\n"))
    with pytest.raises(ParseError, match="more than"):
        read_matrix_market(io.StringIO(head + "4 4 1\n2 3 1.0\n2 4 1.0\n"))
    with pytest.raises(ParseError, match="outside"):
        read_matrix_market(io.StringIO(head + "4 4 1\n5 3 1.0\n"))
    with pytest.raises(ParseError, match="non-finite"):
        read_matrix_market(io.StringIO(head + "4 4 1\n2 3 nan\n"))


@pytest.mark.parametrize("reader, kind, fields, wrong_count, non_integer, invalid", [
    (read_matrix_market, "coordinate", "rows cols nnz", "4 4", "4 4 two",
     ("0 4 1", "4 0 1", "4 4 -1")),
    (read_dense_matrix_market, "array", "rows cols", "4 4 2", "4 four",
     ("0 4", "4 0")),
])
@pytest.mark.parametrize("failure", ["empty", "banner", "field_count", "non_integer",
                                     "invalid", "missing"])
def test_matrix_market_header_errors(reader, kind, fields, wrong_count, non_integer,
                                     invalid, failure):
    banner = "%%%%MatrixMarket matrix %s real general\n" % kind
    other = "array" if kind == "coordinate" else "coordinate"
    # the size line sits at line 4, after a comment and a blank line
    head = banner + "% comment\n\n"
    cases = {
        "empty": [("", "empty file", None)],
        "banner": [("%%%%MatrixMarket matrix %s real general\n4 4 1\n" % other,
                    "expected %s real general banner" % kind, 1)],
        "field_count": [(head + wrong_count + "\n", "expected '%s'" % fields, 4)],
        "non_integer": [(head + non_integer + "\n", "non-integer size field", 4)],
        "invalid": [(head + size + "\n",
                     "invalid sizes %r" % (tuple(int(v) for v in size.split()),), 4)
                    for size in invalid],
        "missing": [(head + "% only comments\n", "missing size line", None)],
    }
    for text, message, line in cases[failure]:
        with pytest.raises(ParseError) as info:
            reader(io.StringIO(text))
        assert info.value.line == line
        assert str(info.value) == (message if line is None
                                   else "line %d: %s" % (line, message))


def test_matrix_market_accepts_comments_and_case():
    text = (
        "%%matrixmarket MATRIX Coordinate Real General\n"
        "% a comment\n"
        "2 2 1\n"
        "% another\n"
        "1 2 -1.5\n"
    )
    entries = read_matrix_market(io.StringIO(text))
    assert entries.count == 1 and entries.vals[0] == -1.5


def test_dense_matrix_market_round_trip(tmp_path):
    rng = CounterRng(13)
    mat = rng.standard_normal((7, 3))
    path = tmp_path / "factor.mtx"
    write_dense_matrix_market(path, mat)
    back = read_dense_matrix_market(path)
    assert np.array_equal(back, mat)


def test_dense_matrix_market_is_column_major():
    text = "%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n"
    mat = read_dense_matrix_market(io.StringIO(text))
    assert np.array_equal(mat, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
    buf = io.StringIO()
    write_dense_matrix_market(buf, mat)
    body = [line for line in buf.getvalue().splitlines() if not line.startswith("%")]
    assert body[0] == "2 3"
    assert [float(v) for v in body[1:]] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_dense_matrix_market_interops_with_scipy():
    scipy_io = pytest.importorskip("scipy.io")
    mat = CounterRng(14).standard_normal((4, 5))
    buf = io.StringIO()
    write_dense_matrix_market(buf, mat)
    assert np.array_equal(scipy_io.mmread(io.StringIO(buf.getvalue())), mat)
    out = io.BytesIO()
    scipy_io.mmwrite(out, mat)
    back = read_dense_matrix_market(io.StringIO(out.getvalue().decode()))
    assert np.allclose(back, mat, rtol=0, atol=1e-15)


def test_dense_matrix_market_errors():
    with pytest.raises(ConfigError):
        write_dense_matrix_market(io.StringIO(), np.arange(4.0))
    with pytest.raises(ParseError, match="expected 6 values, found 5"):
        read_dense_matrix_market(
            io.StringIO("%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n")
        )


@pytest.mark.parametrize("body, message, line", [
    # line numbers count the banner, the size line, blanks and comments
    ("1\n2\n% comment\n3\n4\n5\n", "more than 4 values", 8),
    ("1\n\n2\nthree\n4\n", "malformed value", 6),
    # non-finite values are refused as the coordinate reader refuses them
    ("1\nnan\n3\n4\n", "non-finite value", 4),
    ("1\n2\n% comment\ninf\n4\n", "non-finite value", 6),
    ("1\n2\n3\n-inf\n", "non-finite value", 6),
    ("1e400\n2\n3\n4\n", "non-finite value", 3),
])
def test_dense_reader_body_errors_name_their_line(body, message, line):
    text = "%%MatrixMarket matrix array real general\n2 2\n" + body
    with pytest.raises(ParseError) as info:
        read_dense_matrix_market(io.StringIO(text))
    assert (str(info.value), info.value.line) == ("line %d: %s" % (line, message), line)


@pytest.mark.parametrize("size, count", [
    ("99999999999 99999999999", 99999999999**2),
    ("4000000 4000000", 4000000**2),
])
def test_dense_reader_allocates_nothing_from_the_size_line(size, count):
    text = "%%MatrixMarket matrix array real general\n" + size + "\n1.5\n"
    with pytest.raises(ParseError) as info:
        read_dense_matrix_market(io.StringIO(text))
    assert str(info.value) == "expected %d values, found 1" % count


def test_coordinate_reader_allocates_nothing_from_the_size_line():
    # the count fits the grid, so only reading the entries can reject it;
    # the scan that reports the shortfall must not size arrays from it
    text = HEAD + "3000000 3000000 4000000000000\n1 1 1.0\n"
    with pytest.raises(ParseError) as info:
        read_matrix_market(io.StringIO(text))
    assert str(info.value) == "expected 4000000000000 entries, found 1"


def test_coordinate_reader_fills_a_grid():
    cells = [(i, j) for j in range(1, 4) for i in range(1, 4)]
    text = HEAD + "3 3 9\n" + "".join("%d %d %d.5\n" % (i, j, k)
                                     for k, (i, j) in enumerate(cells))
    outcome = assert_reads_like_the_oracle(text)
    assert outcome[0] == "ok" and len(outcome[3]) == 9


# --- the bulk reader and writers against the line-at-a-time code they replace


def oracle_read_matrix_market(source):
    """The line-at-a-time coordinate reader, kept as the reference."""
    with _opened(source, "r") as stream:
        (n, m, nnz), body = _read_header(stream, "coordinate", ("rows", "cols", "nnz"))
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz)
        seen = {}
        k = 0
        for lineno, text in body:
            if k >= nnz:
                raise ParseError("more than %d entries" % nnz, lineno)
            parts = text.split()
            if len(parts) != 3:
                raise ParseError("expected 'row col value'", lineno)
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ParseError("malformed entry", lineno) from None
            if not 1 <= i <= n:
                raise ParseError("row index %d outside [1, %d]" % (i, n), lineno)
            if not 1 <= j <= m:
                raise ParseError("column index %d outside [1, %d]" % (j, m), lineno)
            if not np.isfinite(v):
                raise ParseError("non-finite value", lineno)
            prev = seen.setdefault((i, j), lineno)
            if prev != lineno:
                raise ParseError(
                    "duplicate entry (%d, %d), first seen at line %d" % (i, j, prev),
                    lineno,
                )
            rows[k], cols[k], vals[k] = i - 1, j - 1, v
            k += 1
    if k != nnz:
        raise ParseError("expected %d entries, found %d" % (nnz, k))
    return ObservedEntries(n, m, rows, cols, vals)


def oracle_write_matrix_market(stream, entries):
    """The line-at-a-time coordinate writer, kept as the reference."""
    stream.write("%%MatrixMarket matrix coordinate real general\n")
    stream.write("%d %d %d\n" % (entries.n, entries.m, entries.count))
    for i, j, v in zip(entries.rows.tolist(), entries.cols.tolist(), entries.vals.tolist()):
        stream.write("%d %d %s\n" % (i + 1, j + 1, repr(v)))


def oracle_write_dense_matrix_market(stream, matrix):
    """The line-at-a-time array writer, kept as the reference."""
    stream.write("%%MatrixMarket matrix array real general\n")
    stream.write("%d %d\n" % matrix.shape)
    for v in matrix.T.ravel():
        stream.write(repr(float(v)) + "\n")


def read_outcome(reader, text):
    """("ok", n, m, rows, cols, value bits) or ("error", message, line)."""
    try:
        e = reader(io.StringIO(text))
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("ok", e.n, e.m, e.rows.tolist(), e.cols.tolist(),
            e.vals.view(np.int64).tolist())


def assert_reads_like_the_oracle(text):
    want = read_outcome(oracle_read_matrix_market, text)
    assert read_outcome(read_matrix_market, text) == want
    return want


SEPARATORS = [" ", "  ", "\t", " \t", "\x0b", "\x0c", "\xa0"]
INT_FORMS = ["%d", "+%d", "%03d"]
FLOAT_FORMS = ["%r", "%.17e", "%.17E", "%+.17g", "%.3f", "%+.6e"]
HEAD = "%%MatrixMarket matrix coordinate real general\n"


@st.composite
def coordinate_files(draw, min_entries=0):
    """Valid coordinate files as text, in the many spellings the format allows."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, m)), unique=True,
                          min_size=min(min_entries, n * m), max_size=n * m))
    banner = draw(st.sampled_from([
        HEAD, "%%matrixmarket MATRIX Coordinate Real General\n",
        "%%MatrixMarket  matrix\tcoordinate real general  \n",
    ]))
    lines = [banner]
    # a comment after the size line sends the file down the line scan
    body_comments = draw(st.booleans())

    def filler(comments=True):
        kinds = ["\n", "   \n", "\t\n"]
        if comments:
            kinds += ["% a comment\n", "%\n", "  % indented 1 2 3\n"]
        return draw(st.lists(st.sampled_from(kinds), max_size=2))

    lines += filler()
    lines.append("%d %d %d\n" % (n, m, len(cells)))
    for i, j in cells:
        lines += filler(body_comments)
        v = draw(st.floats(allow_nan=False, allow_infinity=False))
        fields = (draw(st.sampled_from(INT_FORMS)) % i,
                  draw(st.sampled_from(SEPARATORS)),
                  draw(st.sampled_from(INT_FORMS)) % j,
                  draw(st.sampled_from(SEPARATORS)),
                  draw(st.sampled_from(FLOAT_FORMS)) % v)
        lead = draw(st.sampled_from(["", " ", "\t"]))
        trail = draw(st.sampled_from(["", " ", "\t "]))
        lines.append(lead + "".join(fields) + trail + "\n")
    lines += filler(body_comments)
    if draw(st.booleans()) and lines[-1].endswith("\n"):
        lines[-1] = lines[-1][:-1]  # no final newline
    return "".join(lines)


@given(coordinate_files())
def test_bulk_reader_matches_the_oracle_on_valid_files(text):
    assert assert_reads_like_the_oracle(text)[0] == "ok"


CORRUPTIONS = [
    "bad_token", "short", "long", "row_zero", "row_high", "col_high", "negative",
    "nan", "inf", "overflow", "duplicate", "extra", "missing",
]


def corrupt(lines, kind, where, first):
    """Corrupt the entry line at index ``where`` of ``lines`` in place.

    ``first`` is the text of the file's first entry line, which a
    duplicate repeats.
    """
    i, j, v = lines[where].split()
    if kind == "bad_token":
        lines[where] = "%s %s 1.5x" % (i, j)
    elif kind == "short":
        lines[where] = "%s %s" % (i, j)
    elif kind == "long":
        lines[where] = "%s %s %s 7" % (i, j, v)
    elif kind == "row_zero":
        lines[where] = "0 %s %s" % (j, v)
    elif kind == "row_high":
        lines[where] = "%d %s %s" % (10**6, j, v)
    elif kind == "col_high":
        lines[where] = "%s %d %s" % (i, 10**6, v)
    elif kind == "negative":
        lines[where] = "-%s %s %s" % (i, j, v)
    elif kind == "nan":
        lines[where] = "%s %s nan" % (i, j)
    elif kind == "inf":
        lines[where] = "%s %s -inf" % (i, j)
    elif kind == "overflow":
        lines[where] = "%s %s 1e999" % (i, j)
    elif kind == "duplicate":
        lines[where] = " ".join(first.split()[:2] + [v])
    elif kind == "extra":
        lines.insert(where + 1, "%s %s %s" % (i, j, v))
    elif kind == "missing":
        del lines[where]


def entry_line_indices(lines):
    """Indices of the entry lines: content lines after the banner and size line."""
    content = [k for k, line in enumerate(lines)
               if k and line.strip() and not line.strip().startswith("%")]
    return content[1:]


@given(data=st.data(), text=coordinate_files(min_entries=1))
def test_bulk_reader_matches_the_oracle_on_corrupted_files(data, text):
    lines = text.splitlines()
    entry_lines = entry_line_indices(lines)
    first = lines[entry_lines[0]]
    for _ in range(data.draw(st.integers(1, 3), label="corruptions")):
        where = data.draw(st.sampled_from(entry_lines), label="line")
        # an earlier insertion or deletion may have moved the entry lines
        if where < len(lines) and len(lines[where].split()) == 3:
            corrupt(lines, data.draw(st.sampled_from(CORRUPTIONS), label="kind"),
                    where, first)
    assert_reads_like_the_oracle("\n".join(lines) + "\n")


def test_bulk_reader_matches_the_oracle_on_every_pair_of_corruptions():
    base = (HEAD + "% made by hand\n4 5 5\n1 2 0.5\n\n2 2 -1e-3\n3 1 2.0\n"
            "% mid-body comment\n4 5 +7.25\n4 1 3e2\n").splitlines()
    entry_lines = entry_line_indices(base)
    first = base[entry_lines[0]]
    outcomes = set()
    for a, kind_a in enumerate(CORRUPTIONS):
        for pos_a in entry_lines:
            singles = [[]] + [[(kind_b, pos_b)] for kind_b in CORRUPTIONS[a:]
                              for pos_b in entry_lines if pos_b > pos_a]
            for rest in singles:
                lines = list(base)
                # corrupt the later line first so the earlier index stays valid
                for kind, pos in rest + [(kind_a, pos_a)]:
                    corrupt(lines, kind, pos, first)
                outcome = assert_reads_like_the_oracle("\n".join(lines) + "\n")
                outcomes.add("ok" if outcome[0] == "ok" else
                             "count" if outcome[2] is None else outcome[1].split()[2])
    assert outcomes == {"ok", "malformed", "expected", "row", "column", "non-finite",
                        "duplicate", "more", "count"}


# (body after the banner, message, line) of every reader error after the size line
READER_ERRORS = [
    ("4 4 2\n1 1 1.0\n2 x 1.0\n", "malformed entry", 4),
    ("4 4 2\n1 1 1.0\n2 2 1.0 3\n", "expected 'row col value'", 4),
    ("4 4 2\n1 1 1.0\n2 2\n", "expected 'row col value'", 4),
    ("4 4 2\n1 1 1.0\n0 2 1.0\n", "row index 0 outside [1, 4]", 4),
    ("4 4 2\n1 1 1.0\n2 5 1.0\n", "column index 5 outside [1, 4]", 4),
    ("4 4 2\n1 1 1.0\n99999999999999999999 1 1.0\n",
     "row index 99999999999999999999 outside [1, 4]", 4),
    ("%d 1 1\n%d 1 1.0\n" % (2**63, -2**63),
     "row index %d outside [1, %d]" % (-2**63, 2**63), 3),
    # a grid has at most 2**63 cells, so each has an int64 cell number
    ("%d 4 1\n1 1 1.0\n" % 2**63, "grid of %d x 4 cells exceeds 2**63" % 2**63, 2),
    ("3 %d 1\n1 1 1.0\n" % 2**62, "grid of 3 x %d cells exceeds 2**63" % 2**62, 2),
    # a grid holds at most n m entries; the count is checked before any is read
    ("3 3 10\n1 1 1.0\n", "10 entries exceed the 3 x 3 grid", 2),
    ("3 3 4000000000000\n1 1 1.0\n", "4000000000000 entries exceed the 3 x 3 grid", 2),
    ("4 4 1\n1 1 1.0#2\n", "malformed entry", 3),
    ("4 4 2\n1 1 1.0\n2 2 nan\n", "non-finite value", 4),
    ("4 4 2\n1 1 1.0\n2 2 -inf\n", "non-finite value", 4),
    ("4 4 2\n1 1 1.0\n2 2 1e400\n", "non-finite value", 4),
    ("4 4 3\n2 3 1.0\n% c\n\n2 3 2.0\n1 1 1.0\n",
     "duplicate entry (2, 3), first seen at line 3", 6),
    ("4 4 1\n2 3 1.0\n2 4 1.0\n", "more than 1 entries", 4),
    ("4 4 3\n2 3 1.0\n1 1 1.0\n", "expected 3 entries, found 2", None),
    ("4 4 1\n", "expected 1 entries, found 0", None),
    # the first offending line decides: a duplicate before an index out of
    # range, an index out of range before a malformed line
    ("4 4 3\n1 1 1.0\n1 1 2.0\n9 1 1.0\n",
     "duplicate entry (1, 1), first seen at line 3", 4),
    ("4 4 3\n1 1 1.0\n9 1 1.0\n1 1 2.0\n", "row index 9 outside [1, 4]", 4),
    ("4 4 3\n1 9 1.0\n1 x 1.0\n2 2 nan\n", "column index 9 outside [1, 4]", 3),
    ("4 4 2\n1 1 nan\n1 1 1.0\n1 2 1.0\n", "non-finite value", 3),
]


@pytest.mark.parametrize("body, message, line", READER_ERRORS)
def test_bulk_reader_errors_match_the_oracle(body, message, line):
    text = HEAD + body
    want = ("error", message if line is None else "line %d: %s" % (line, message), line)
    assert read_outcome(oracle_read_matrix_market, text) == want
    assert read_outcome(read_matrix_market, text) == want


@pytest.mark.parametrize("body, message, line", READER_ERRORS)
def test_reader_errors_keep_their_lines_after_a_body_comment(body, message, line):
    # a comment and a blank line right after the size line move every later
    # line down by two and change nothing else
    size_line, rest = body.split("\n", 1)
    text = HEAD + size_line + "\n% c\n\n" + rest
    if line is not None and line > 2:
        line += 2
    message = re.sub(r"first seen at line (\d+)",
                     lambda seen: "first seen at line %d" % (int(seen[1]) + 2), message)
    want = ("error", message if line is None else "line %d: %s" % (line, message), line)
    assert read_outcome(oracle_read_matrix_market, text) == want
    assert read_outcome(read_matrix_market, text) == want


def test_comment_bearing_files_read_like_plain_files():
    entries = random_entries(9, 11, 30, 21)
    plain = io.StringIO()
    write_matrix_market(plain, entries)
    lines = plain.getvalue().splitlines(True)
    variants = [
        lines[:2] + ["% after the size line\n"] + lines[2:],
        lines + ["% after the last entry\n"],
        lines[:9] + ["  % indented\n", "\n", "\t\n", "%\n"] + lines[9:],
        [line + "%\n" if k > 1 and k % 7 == 0 else line for k, line in enumerate(lines)],
    ]
    want = read_outcome(read_matrix_market, plain.getvalue())
    for variant in variants:
        assert read_outcome(read_matrix_market, "".join(variant)) == want
        # a source that cannot seek is parsed again from its lines
        assert read_outcome(lambda stream: read_matrix_market(iter(list(stream))),
                            "".join(variant)) == want


@pytest.mark.parametrize("entry, value", [
    ("1_0 2 3.0", 3.0),        # digit separators
    ("10 2 2_5.5", 25.5),
    ("١٠ 2 3.0", 3.0),  # Arabic-Indic digits
    ("10 2\r3.0", 3.0),        # a carriage return inside the line
])
def test_reader_accepts_what_only_the_line_scan_accepts(entry, value):
    text = HEAD + "10 10 2\n1 1 1.0\n" + entry + "\n"
    assert assert_reads_like_the_oracle(text)[0] == "ok"
    assert read_matrix_market(io.StringIO(text)).vals.tolist() == [1.0, value]


def test_reader_rescans_sources_it_cannot_seek(tmp_path):
    good = HEAD + "% c\n3 3 2\n1 2 0.5\n3 3 -2e3\n"
    bad = HEAD + "3 3 2\n1 2 0.5\n1 2 0.25\n"
    path = tmp_path / "bad.mtx"
    path.write_text(bad, encoding="utf-8")
    sources = [lambda t: t.splitlines(True), lambda t: iter(t.splitlines(True))]
    for make in sources:
        e = read_matrix_market(make(good))
        assert e.rows.tolist() == [0, 2] and e.vals.tolist() == [0.5, -2000.0]
        with pytest.raises(ParseError) as info:
            read_matrix_market(make(bad))
        assert (str(info.value), info.value.line) == (
            "line 4: duplicate entry (1, 2), first seen at line 3", 4)
    with pytest.raises(ParseError) as info:
        read_matrix_market(path)
    assert info.value.line == 4


finite_floats = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@given(data=st.data(), n=st.integers(1, 9), m=st.integers(1, 9))
def test_writers_match_the_line_at_a_time_bytes(data, n, m):
    cells = data.draw(st.lists(st.integers(0, n * m - 1), unique=True, max_size=n * m),
                      label="cells")
    vals = data.draw(st.lists(finite_floats, min_size=len(cells), max_size=len(cells)),
                     label="vals")
    rows, cols = np.divmod(np.array(cells, dtype=np.int64), m)
    entries = ObservedEntries(n, m, rows, cols, vals)
    got, want = io.StringIO(), io.StringIO()
    write_matrix_market(got, entries)
    oracle_write_matrix_market(want, entries)
    assert got.getvalue() == want.getvalue()
    matrix = np.array(data.draw(st.lists(finite_floats, min_size=n * m, max_size=n * m),
                                label="matrix")).reshape(n, m)
    got, want = io.StringIO(), io.StringIO()
    write_dense_matrix_market(got, matrix)
    oracle_write_dense_matrix_market(want, matrix)
    assert got.getvalue() == want.getvalue()


def test_writer_bytes_are_pinned():
    entries = ObservedEntries(3, 4, [0, 2, 1], [3, 0, 1], [0.1, -2.5e-300, 4.0])
    buf = io.StringIO()
    write_matrix_market(buf, entries)
    assert buf.getvalue() == (
        "%%MatrixMarket matrix coordinate real general\n"
        "3 4 3\n1 4 0.1\n2 2 4.0\n3 1 -2.5e-300\n"
    )
    buf = io.StringIO()
    write_matrix_market(buf, ObservedEntries(3, 4, [], [], []))
    assert buf.getvalue() == "%%MatrixMarket matrix coordinate real general\n3 4 0\n"
    buf = io.StringIO()
    write_dense_matrix_market(buf, [[1.0, 1 / 3], [-0.0, 1e22]])
    assert buf.getvalue() == (
        "%%MatrixMarket matrix array real general\n"
        "2 2\n1.0\n-0.0\n0.3333333333333333\n1e+22\n"
    )


# few distinct values, as in ratings: both zeros, subnormals, integers, a
# value with no short decimal form and one printed in exponent form
value_pool = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1.0, 2.0, 3.0, 4.0, 5.0,
                              0.1, 1e22])
grids = st.tuples(st.integers(1, 9), st.integers(1, 9)) | st.sampled_from(
    [(2**62, 2), (2, 2**62), (2**63, 1)])


@given(data=st.data(), grid=grids)
def test_writer_matches_the_line_at_a_time_bytes_on_repeated_values(data, grid):
    n, m = grid
    cells = data.draw(st.lists(st.integers(0, n * m - 1) | st.sampled_from([0, n * m - 1]),
                               unique=True, max_size=min(n * m, 40)), label="cells")
    vals = data.draw(st.lists(value_pool, min_size=len(cells), max_size=len(cells)),
                     label="vals")
    rows, cols = np.divmod(np.array(cells, dtype=np.int64), m)
    entries = ObservedEntries(n, m, rows, cols, vals)
    got, want = io.StringIO(), io.StringIO()
    write_matrix_market(got, entries)
    oracle_write_matrix_market(want, entries)
    assert got.getvalue() == want.getvalue()
    back = read_matrix_market(io.StringIO(got.getvalue()))
    assert back.rows.tolist() == entries.rows.tolist()
    assert back.cols.tolist() == entries.cols.tolist()
    # bit for bit, so the sign of every zero survives
    assert back.vals.view(np.int64).tolist() == entries.vals.view(np.int64).tolist()


@pytest.mark.parametrize("n, m, rows, cols", [
    (2**63, 1, [2**63 - 1, 0], [0, 0]),
    (1, 2**63, [0, 0], [2**63 - 1, 0]),
])
def test_writer_round_trips_the_last_index_of_a_2_63_grid(n, m, rows, cols):
    entries = ObservedEntries(n, m, rows, cols, [1.0, -0.0])
    buf = io.StringIO()
    write_matrix_market(buf, entries)
    assert str(2**63) in buf.getvalue().splitlines()[3]
    back = read_matrix_market(io.StringIO(buf.getvalue()))
    assert (back.n, back.m) == (n, m)
    assert back.rows.tolist() == entries.rows.tolist()
    assert back.cols.tolist() == entries.cols.tolist()
    assert back.vals.view(np.int64).tolist() == entries.vals.view(np.int64).tolist()


# --- the bulk ratings reader against the line scan it replaces


def oracle_parse_movielens(source):
    """The line-at-a-time ratings parser, kept as the reference (it lets
    an integer beyond 64 bits escape as an OverflowError)."""
    users, items, ratings = [], [], []
    with _opened(source, "r") as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("::")
            if len(parts) != 4:
                raise ParseError("expected 4 fields separated by '::'", lineno)
            try:
                uid, mid = int(parts[0]), int(parts[1])
                rating = float(parts[2])
                int(parts[3])  # the timestamp is checked, not kept
            except ValueError as exc:
                raise ParseError("non-numeric field: %s" % exc, lineno) from None
            if uid < 1 or mid < 1:
                raise ParseError("ids must be positive", lineno)
            if not 0.0 < rating <= 5.0:
                raise ParseError("rating %r outside (0, 5]" % parts[2], lineno)
            users.append(uid)
            items.append(mid)
            ratings.append(rating)
    if not users:
        raise ParseError("no ratings found")
    raw_users = np.asarray(users, dtype=np.int64)
    raw_items = np.asarray(items, dtype=np.int64)
    uniq_users, rows = np.unique(raw_users, return_inverse=True)
    uniq_items, cols = np.unique(raw_items, return_inverse=True)
    return RatingsDataset(
        n_users=int(uniq_users.size),
        n_items=int(uniq_items.size),
        rows=rows.astype(np.int64),
        cols=cols.astype(np.int64),
        ratings=np.asarray(ratings),
        user_id_range=int(uniq_users[-1]),
        item_id_range=int(uniq_items[-1]),
    )


def ratings_outcome(parser, source):
    """("ok", every field, rating bits) or ("error", message, line)."""
    try:
        ds = parser(source)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    arrays = (ds.rows, ds.cols, ds.ratings)
    assert [a.dtype for a in arrays] == [np.int64, np.int64, np.float64]
    return ("ok", ds.n_users, ds.n_items, ds.user_id_range, ds.item_id_range,
            ds.rows.tolist(), ds.cols.tolist(), ds.ratings.view(np.int64).tolist())


def assert_parses_like_the_oracle(text):
    """The same outcome from a text stream and from a list of its lines."""
    want = ratings_outcome(oracle_parse_movielens, io.StringIO(text))
    assert ratings_outcome(parse_movielens, io.StringIO(text)) == want
    lines = io.StringIO(text).readlines()  # the lines that iterating the stream gives
    assert ratings_outcome(parse_movielens, lines) == want
    return want


ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
SPACES = ["", "", " ", "\t", "\x0b", "\xa0", "  "]


def spelled_int(draw, value, rare):
    """``value`` in one of the spellings Python's int() reads; with ``rare``,
    also digit separators and non-ASCII digits, which only the line scan reads."""
    text = draw(st.sampled_from(["%d", "%d", "+%d", "%03d"])) % value
    if value < 0:
        text = "%d" % value
    if rare and draw(st.booleans()) and len(text.lstrip("+-")) > 1:
        digits = text.lstrip("+-")
        text = text[:len(text) - len(digits)] + digits[0] + "_" + digits[1:]
    if rare and draw(st.integers(0, 3)) == 0:
        text = text.translate(ARABIC)
    return draw(st.sampled_from(SPACES)) + text + draw(st.sampled_from(SPACES))


def spelled_rating(draw, rare):
    value = draw(st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0, 0.5, 4.5])
                 | st.floats(0.01, 5.0))  # above 0 in every spelling below
    forms = ["%r", "%.17e", "%+.17g", "%.3f"]
    if value == int(value):
        forms += ["%d", "%d.", "%de0"]
    text = draw(st.sampled_from(forms)) % value
    if rare and draw(st.integers(0, 3)) == 0:
        text = text.translate(ARABIC)
    return draw(st.sampled_from(SPACES)) + text + draw(st.sampled_from(SPACES))


@st.composite
def ratings_files(draw, min_lines=0):
    """Ratings files as text, in the spellings the line scan reads, with
    blank lines between them; in about half of them every line is one the
    array parse reads too."""
    rare = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(min_lines, 12))):
        # the array parse skips empty lines but rejects whitespace-only ones
        blank = ["\n", "  \n", "\t\n", "\x0b\n"] if rare else ["\n"]
        lines += draw(st.lists(st.sampled_from(blank), max_size=1))
        user, item = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        stamp = draw(st.integers(-2**63, 2**63 - 1) | st.integers(0, 10**9))
        fields = [spelled_int(draw, user, rare), spelled_int(draw, item, rare),
                  spelled_rating(draw, rare), spelled_int(draw, stamp, rare)]
        ending = draw(st.sampled_from(["\n", "\r\n", " \n"]))
        lines.append(draw(st.sampled_from(SPACES)) + "::".join(fields) + ending)
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\n")  # no final newline
    return "".join(lines)


RATING_CORRUPTIONS = [
    "single_colon", "triple_colon", "spaced_colon", "extra_field", "missing_field",
    "empty_field", "bad_token", "float_id", "float_stamp", "zero_id", "negative_id",
    "nan", "zero_rating", "high_rating", "inner_cr", "hash",
]


def corrupt_rating(line, kind):
    """One ratings line, corrupted in the way ``kind`` names."""
    fields = line.split("::")
    if kind == "single_colon":
        return line.replace("::", ":", 1)
    if kind == "triple_colon":
        return line.replace("::", ":::", 1)
    if kind == "spaced_colon":
        return line.replace("::", ": :", 1)
    if kind == "extra_field":
        return line + "::7"
    if kind == "missing_field":
        return "::".join(fields[:3])
    if kind == "empty_field":
        return "::".join([""] + fields[1:])
    if kind == "bad_token":
        return "::".join([fields[0], "x"] + fields[2:])
    if kind == "float_id":
        return "::".join(["1.0"] + fields[1:])
    if kind == "float_stamp":
        return "::".join(fields[:3] + ["4.0"])
    if kind == "zero_id":
        return "::".join(["0"] + fields[1:])
    if kind == "negative_id":
        return "::".join(fields[:1] + ["-3"] + fields[2:])
    if kind == "nan":
        return "::".join(fields[:2] + ["nan"] + fields[3:])
    if kind == "zero_rating":
        return "::".join(fields[:2] + ["0"] + fields[3:])
    if kind == "high_rating":
        return "::".join(fields[:2] + ["5.5"] + fields[3:])
    if kind == "inner_cr":
        return line.replace("::", "\r::", 1)
    if kind == "hash":
        return line + "#x"


@given(ratings_files())
def test_bulk_ratings_match_the_oracle_on_valid_files(text):
    outcome = assert_parses_like_the_oracle(text)
    assert outcome[0] == "ok" or outcome[1] == "no ratings found"


@given(data=st.data(), text=ratings_files(min_lines=1))
def test_bulk_ratings_match_the_oracle_on_corrupted_files(data, text):
    lines = text.split("\n")
    rated = [k for k, line in enumerate(lines) if "::" in line]
    for _ in range(data.draw(st.integers(1, 3), label="corruptions")):
        k = data.draw(st.sampled_from(rated), label="line")
        lines[k] = corrupt_rating(lines[k], data.draw(st.sampled_from(RATING_CORRUPTIONS),
                                                      label="kind"))
    assert_parses_like_the_oracle("\n".join(lines))


@pytest.mark.parametrize("body, message, line", [
    ("1::2::3::4\n1:2::3::4\n", "expected 4 fields separated by '::'", 2),
    ("1::2::3::4\n\n1::2::3::4::5\n", "expected 4 fields separated by '::'", 3),
    ("1::2::3::4\n1::2::3\n", "expected 4 fields separated by '::'", 2),
    ("1::2::3::4\n1: :2::3::4\n", "expected 4 fields separated by '::'", 2),
    ("1:x:2::3::4\n", "expected 4 fields separated by '::'", 1),
    ("1::2::3:\t:4\n", "expected 4 fields separated by '::'", 1),
    ("1:::2::3::4\n", "non-numeric field: invalid literal for int() with base 10: ':2'", 1),
    ("1::2::3::4\n  \n1::x::3::4\n",
     "non-numeric field: invalid literal for int() with base 10: 'x'", 3),
    ("1::2::3.0::4.0\n", "non-numeric field: invalid literal for int() with base 10: '4.0'",
     1),
    ("1::2::three::4\n", "non-numeric field: could not convert string to float: 'three'", 1),
    ("1::2::nan::4\n", "rating 'nan' outside (0, 5]", 1),
    ("1::2::+5.5::4\n", "rating '+5.5' outside (0, 5]", 1),
    ("1::2::5_000::4\n", "rating '5_000' outside (0, 5]", 1),
    ("1::2::٦::4\n", "rating '٦' outside (0, 5]", 1),
    ("1::2::0::4\n", "rating '0' outside (0, 5]", 1),
    ("1::2::3::4\n-0::2::3::4\n", "ids must be positive", 2),
    ("1::2::3::99999999999999999999\n", "integer field outside the 64-bit range", 1),
    ("\n  \n\t\n", "no ratings found", None),
    ("", "no ratings found", None),
    # the first offending line decides
    ("1::2::3::4\n1::2::9::4\n1::x::3::4\n", "rating '9' outside (0, 5]", 2),
    ("1::2::3::4\n0::2::3::4\n1::2\n", "ids must be positive", 2),
])
def test_bulk_ratings_errors_match_the_scan(body, message, line):
    want = ("error", message if line is None else "line %d: %s" % (line, message), line)
    assert ratings_outcome(parse_movielens, io.StringIO(body)) == want
    if "99999" not in body:
        assert ratings_outcome(oracle_parse_movielens, io.StringIO(body)) == want


@pytest.mark.parametrize("line, user, rating", [
    ("+5::2::+4::+6", 5, 4.0),
    ("5_000::2::3::4", 5000, 3.0),
    ("١٢::2::٣::٤", 12, 3.0),   # Arabic-Indic digits
    (" 7 :: 2 ::\t2.5\t:: 4 ", 7, 2.5),
    ("7::2\r::3::4", 7, 3.0),         # a carriage return inside the line
])
def test_ratings_reader_accepts_what_only_the_line_scan_accepts(line, user, rating):
    text = "1::1::1::1\n" + line + "\n"
    assert assert_parses_like_the_oracle(text)[0] == "ok"
    ds = parse_movielens(io.StringIO(text))
    assert ds.user_id_range == max(1, user)
    assert ds.ratings.tolist() == [1.0, rating]


def test_ratings_reader_rescans_sources_it_cannot_seek(tmp_path):
    good = "3::10::4::1\n\n1::10::5::2\n"
    bad = "3::10::4::1\n1::10::5::2\n1::10::6::2\n"
    path = tmp_path / "bad.dat"
    path.write_text(bad, encoding="utf-8")
    for make in (lambda t: t.splitlines(True), lambda t: iter(t.splitlines(True))):
        ds = parse_movielens(make(good))
        assert ds.rows.tolist() == [1, 0] and ds.ratings.tolist() == [4.0, 5.0]
        with pytest.raises(ParseError) as info:
            parse_movielens(make(bad))
        assert (str(info.value), info.value.line) == ("line 3: rating '6' outside (0, 5]", 3)
    with pytest.raises(ParseError) as info:
        parse_movielens(path)
    assert info.value.line == 3


def test_files_this_package_writes_take_the_array_parse(tmp_path, monkeypatch):
    from r3mc import data_io

    def no_scan(*args):
        raise AssertionError("line scan used")

    for name in ("_scan_entries", "_scan_ratings"):
        monkeypatch.setattr(data_io, name, no_scan)
    entries = random_entries(9, 11, 30, 11)
    write_matrix_market(tmp_path / "e.mtx", entries)
    back = read_matrix_market(tmp_path / "e.mtx")
    assert back.vals.tolist() == entries.vals.tolist()
    path = tmp_path / "ratings.dat"
    path.write_text("3::10::4::978300760\n1::10::4.5::978300761\n", encoding="utf-8")
    assert parse_movielens(path).ratings.tolist() == [4.0, 4.5]
    assert parse_movielens(["1::2::3::4", "5::6::1::7\n"]).ratings.tolist() == [3.0, 1.0]
