"""Synthetic problem generators, ratings ingestion, and Matrix Market I/O.

Generators are seed-deterministic through the package RNG.  Matrix
Market support covers the coordinate format for observed entries and
the dense array format for factor matrices; values are written with
shortest exact float representations so read(write(x)) is lossless.
"""

import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractViolationError, DimensionError, ParseError
from .problem import CompletionProblem, ObservedEntries, check_grid, degrees_of_freedom
from .rng import CounterRng
from .smallmat import polar_orthonormal_factor

# entries per einsum when synthesize forms its values: chunks give the bits
# of one einsum over all entries, and this size ran fastest when measured
_VALUE_CHUNK = 8192


def required_count(n, m, rank, oversampling):
    """Entry count hitting a target oversampling ratio."""
    return int(round(oversampling * degrees_of_freedom(n, m, rank)))


def _check_condition(rank, condition_number):
    if not 1.0 <= condition_number < np.inf:
        raise ConfigError("condition number must be finite and at least 1")
    if rank == 1 and condition_number > 1.0:
        raise ConfigError("a rank-one matrix cannot have condition number above 1")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic completion problem."""

    n: int
    m: int
    rank: int
    oversampling: float
    condition_number: float | None = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigError("dimensions must be positive")
        if not 1 <= self.rank <= min(self.n, self.m):
            raise ConfigError("rank %d must lie in [1, %d] on the %d x %d grid"
                              % (self.rank, min(self.n, self.m), self.n, self.m))
        check_grid(self.n, self.m, self.rank)
        if not 0.0 < self.oversampling < np.inf:
            raise ConfigError("oversampling must be positive and finite")
        if self.count < 1:
            raise ConfigError(
                "oversampling %.3g gives no entries on the %d x %d grid at rank %d"
                % (self.oversampling, self.n, self.m, self.rank)
            )
        if self.count > self.n * self.m:
            raise ConfigError(
                "oversampling %.3g needs %d entries, grid has only %d"
                % (self.oversampling, self.count, self.n * self.m)
            )
        if self.condition_number is not None:
            _check_condition(self.rank, self.condition_number)

    @property
    def count(self):
        return required_count(self.n, self.m, self.rank, self.oversampling)


def synth_gaussian(n, m, rank, seed):
    """Ground-truth factors (left, right) with iid gaussian entries."""
    rng = CounterRng(seed)
    left = rng.standard_normal((n, rank))
    right = rng.standard_normal((rank, m))
    return left, right


def synth_conditioned(n, m, rank, condition_number, seed):
    """Ground-truth factors with prescribed singular values.

    Singular values are geometrically spaced from 1/CN up to 1, so the
    product has condition number exactly CN (all ones when CN = 1).
    """
    _check_condition(rank, condition_number)
    rng = CounterRng(seed)
    qa = polar_orthonormal_factor(rng.standard_normal((n, rank)))
    qb = polar_orthonormal_factor(rng.standard_normal((m, rank)))
    sigma = np.logspace(-np.log10(condition_number), 0.0, rank)
    return qa * sigma, qb.T


def sample_mask(n, m, count, seed):
    """Exact-count uniform mask without replacement, row-major sorted, on
    any grid of at most 2**63 cells."""
    check_grid(n, m)
    if not 1 <= count <= n * m:
        raise ConfigError("count must lie in [1, n m]")
    rng = CounterRng(seed)
    lin = rng.sample_without_replacement(n * m, count)
    # split the cell numbers in uint64, where m = 2**63 fits
    cell, width = lin.view(np.uint64), np.uint64(m)
    cols = (cell % width).view(np.int64)
    cell //= width
    return lin, cols


def synthesize(spec, seed):
    """Build (CompletionProblem, (left, right)) from a SyntheticSpec.

    The mask seed and factor seed are decoupled offsets of ``seed`` so
    regenerating with the same seed reproduces both exactly.
    """
    if spec.condition_number is None:
        left, right = synth_gaussian(spec.n, spec.m, spec.rank, seed)
    else:
        left, right = synth_conditioned(
            spec.n, spec.m, spec.rank, spec.condition_number, seed
        )
    rows, cols = sample_mask(spec.n, spec.m, spec.count, seed + 1)
    vals = np.empty(rows.size)
    for start in range(0, rows.size, _VALUE_CHUNK):
        part = slice(start, start + _VALUE_CHUNK)
        vals[part] = np.einsum("ij,ji->i", left[rows[part]], right[:, cols[part]])
    entries = ObservedEntries(spec.n, spec.m, rows, cols, vals)
    return CompletionProblem(entries, spec.rank), (left, right)


@dataclass(frozen=True)
class RatingsDataset:
    """Ratings on a densely re-indexed users x items grid.

    Row and column ids are contiguous from zero in raw-id order; the
    original 1-based id ranges are kept for reporting since published
    dataset sizes usually quote them.
    """

    n_users: int
    n_items: int
    rows: np.ndarray
    cols: np.ndarray
    ratings: np.ndarray
    user_id_range: int
    item_id_range: int

    @property
    def count(self):
        return int(self.ratings.size)


def parse_movielens(source):
    """Parse ``UserID::MovieID::Rating::Timestamp`` lines into a RatingsDataset.

    Ids are 1-based and possibly sparse in the file; users and items are
    re-indexed densely from zero.  Accepts a path or an iterable of
    lines.  The lines are parsed and checked as whole arrays; when that
    parse rejects a line or a check fails, they are read again one line
    at a time, which raises the error of the first offending line (or
    returns the ratings of a file that only the array parse rejects).
    """
    users, items, ratings = _parse(source, _bulk_ratings, _scan_ratings)
    uniq_users, rows = np.unique(users, return_inverse=True)
    uniq_items, cols = np.unique(items, return_inverse=True)
    return RatingsDataset(
        n_users=int(uniq_users.size),
        n_items=int(uniq_items.size),
        rows=rows.astype(np.int64),
        cols=cols.astype(np.int64),
        ratings=ratings,
        user_id_range=int(uniq_users[-1]),
        item_id_range=int(uniq_items[-1]),
    )


# one ratings line as the array parse reads it: split at every ':', so
# each '::' leaves an empty field between two values
_RATING = np.dtype([("user", np.int64), ("sep1", "U1"), ("item", np.int64),
                    ("sep2", "U1"), ("rating", np.float64), ("sep3", "U1"),
                    ("stamp", np.int64)])


def _bulk_ratings(lines):
    """(users, items, ratings) from one array parse, or None.

    None when the parse rejects a line or a line fails a check.  The
    parse accepts a subset of what ``_scan_ratings`` accepts, with the
    same values.
    """
    table = _load_table(lines, _RATING, delimiter=":")
    if table is None:
        return None
    users, items, ratings = table["user"], table["item"], table["rating"]
    if (any(np.any(table[sep] != "") for sep in ("sep1", "sep2", "sep3"))
            or min(users.min(), items.min()) < 1
            or not np.all((ratings > 0.0) & (ratings <= 5.0))):
        return None
    return tuple(np.ascontiguousarray(table[f]) for f in ("user", "item", "rating"))


_INT64 = range(-2**63, 2**63)  # the integers an int64 holds


def _scan_ratings(lines):
    """(users, items, ratings), checked one line at a time; the timestamp
    is parsed and checked but not kept."""
    users, items, ratings = [], [], []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("::")
        if len(parts) != 4:
            raise ParseError("expected 4 fields separated by '::'", lineno)
        try:
            uid, mid = int(parts[0]), int(parts[1])
            rating = float(parts[2])
            stamp = int(parts[3])
        except ValueError as exc:
            raise ParseError("non-numeric field: %s" % exc, lineno) from None
        if any(v not in _INT64 for v in (uid, mid, stamp)):
            raise ParseError("integer field outside the 64-bit range", lineno)
        if uid < 1 or mid < 1:
            raise ParseError("ids must be positive", lineno)
        if not 0.0 < rating <= 5.0:
            raise ParseError("rating %r outside (0, 5]" % parts[2], lineno)
        users.append(uid)
        items.append(mid)
        ratings.append(rating)
    if not users:
        raise ParseError("no ratings found")
    return (np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64),
            np.asarray(ratings))


def to_entries(dataset):
    """Observed entries on the ratings grid (rejects duplicate ratings)."""
    return ObservedEntries(
        dataset.n_users, dataset.n_items, dataset.rows, dataset.cols, dataset.ratings
    )


def _subset(entries, idx):
    return ObservedEntries(
        entries.n, entries.m, entries.rows[idx], entries.cols[idx], entries.vals[idx]
    )


def check_fractions(fractions):
    """``fractions`` as a tuple of floats; raises ConfigError unless they
    are three finite nonnegative numbers summing to one."""
    f = tuple(float(v) for v in fractions)
    if len(f) != 3 or not all(0.0 <= v < np.inf for v in f):
        raise ConfigError("fractions must be three finite nonnegative numbers")
    if abs(sum(f) - 1.0) > 1e-9:
        raise ConfigError("fractions must sum to one")
    return f


def split_train_val_test(entries, fractions, seed):
    """Random disjoint split covering all entries.

    ``fractions`` pass ``check_fractions``; the split sizes match them to
    within a single entry.
    """
    f = check_fractions(fractions)
    total = entries.count
    perm = CounterRng(seed).permutation(total)
    c1 = int(round(f[0] * total))
    c2 = int(round((f[0] + f[1]) * total))
    c1, c2 = min(c1, total), min(max(c2, c1), total)
    # each part in pattern order: ObservedEntries sorts it so anyway, and
    # an already sorted key sorts fast
    return tuple(_subset(entries, np.sort(perm[a:b]))
                 for a, b in ((0, c1), (c1, c2), (c2, total)))


@contextmanager
def _opened(source, mode):
    """Yield a text stream for ``source``.

    A path (str or Path) is opened as UTF-8 in ``mode`` and closed when
    the block exits, also on an exception; anything else is yielded as
    the stream itself and left open for its owner.
    """
    if isinstance(source, (str, Path)):
        with open(source, mode, encoding="utf-8") as stream:
            yield stream
    else:
        yield source


def _parse(source, bulk, scan):
    """``bulk(lines)``, or ``scan(lines)`` from the first line again when
    ``bulk`` returns None.

    ``source`` is a path or an iterable of lines.  A seekable stream is
    read again after a seek back to where it was; anything else is read
    into a list first.
    """
    with _opened(source, "r") as lines:
        try:
            start = lines.tell()
        except (AttributeError, OSError):
            lines, start = list(lines), None
        result = bulk(lines)
        if result is None:
            if start is not None:
                lines.seek(start)
            result = scan(lines)
    return result


def _content_lines(lines):
    for lineno, line in lines:
        text = line.strip()
        if text and not text.startswith("%"):
            yield lineno, text


def _read_header(stream, banner, fields):
    """Read a Matrix Market banner and size line from ``stream``.

    ``banner`` is the format word ("coordinate" or "array") and
    ``fields`` names the size-line fields, the first two of which (rows,
    cols) must be at least one and the rest at least zero.  Returns
    (sizes, body): the sizes as a tuple of ints and an iterator of
    (line number, stripped text) over the remaining lines that are
    neither blank nor comments, read from ``stream`` as it goes, so an
    iterator passed as ``stream`` is left just past the size line.
    Raises ParseError for an empty file, a wrong banner (line 1), a size
    line with the wrong field count, non-integer or invalid sizes, a
    coordinate grid of more than 2**63 cells or more entries than cells
    (all at the size line's number), and a missing size line.
    """
    lines = enumerate(stream, start=1)
    first = next(lines, None)
    if first is None:
        raise ParseError("empty file")
    expected = "%%%%matrixmarket matrix %s real general" % banner
    if " ".join(first[1].lower().split()) != expected:
        raise ParseError("expected %s real general banner" % banner, 1)
    body = _content_lines(lines)
    size_line = next(body, None)
    if size_line is None:
        raise ParseError("missing size line")
    lineno, text = size_line
    parts = text.split()
    if len(parts) != len(fields):
        raise ParseError("expected '%s'" % " ".join(fields), lineno)
    try:
        sizes = tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError("non-integer size field", lineno) from None
    if min(sizes[:2]) < 1 or min(sizes) < 0:
        raise ParseError("invalid sizes %r" % (sizes,), lineno)
    if banner == "coordinate":
        try:
            check_grid(*sizes[:2])
        except DimensionError as exc:
            raise ParseError(str(exc), lineno) from None
        n, m, nnz = sizes
        if nnz > n * m:
            raise ParseError("%d entries exceed the %d x %d grid" % (nnz, n, m), lineno)
    return sizes, body


def _tokens(keys, fmt, numbers):
    """``fmt % x`` for each key, formatted once per distinct key.

    ``numbers`` maps the sorted distinct keys to the Python numbers that
    ``fmt`` formats.  Returns an object array of strings aligned with
    ``keys``; the table spans only the keys that occur.
    """
    distinct, inverse = np.unique(keys, return_inverse=True)
    table = np.array([fmt % x for x in numbers(distinct)], dtype=object)
    return table[inverse]


def write_matrix_market(target, entries):
    """Write observed entries in the 1-based coordinate format.

    The bytes are those of ``"%d %d %r\\n"`` per entry, formatted from
    Python numbers; each distinct row, column and value is formatted
    once.  Values are keyed by their bits, so 0.0 and -0.0 stay apart.
    """
    rows = _tokens(entries.rows, "%d ", lambda d: [i + 1 for i in d.tolist()])
    cols = _tokens(entries.cols, "%d ", lambda d: [j + 1 for j in d.tolist()])
    vals = _tokens(entries.vals.view(np.int64), "%r\n",
                   lambda d: d.view(np.float64).tolist())
    with _opened(target, "w") as stream:
        stream.write("%%MatrixMarket matrix coordinate real general\n")
        stream.write("%d %d %d\n" % (entries.n, entries.m, entries.count))
        stream.writelines(map("".join, zip(rows, cols, vals)))


# one coordinate entry line as the array parse reads it
_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("val", np.float64)])

# the size-line fields of a coordinate file
_COORDINATE = ("rows", "cols", "nnz")


def read_matrix_market(source):
    """Read a coordinate real general file into ObservedEntries.

    Raises ParseError with line numbers for malformed lines, indices out
    of range, duplicate entries (both occurrences reported), and entry
    count mismatches.  The entry lines are parsed and checked as whole
    arrays.  When that parse rejects a line (a comment line after the
    size line too) or a check fails, the file is read again one line at
    a time, which raises the error of the first offending line (or
    returns the entries of a file that only the array parse rejects).
    """
    return _parse(source, _bulk_entries, _scan_entries)


def _load_table(lines, dtype, delimiter=None):
    """One ``np.loadtxt`` parse of ``lines``, or None when it rejects one.

    The parse reads each item of ``lines`` as one line (and rejects an
    item with a line break inside it), skips empty lines, and treats no
    character as a comment.  An input without rows is rejected too.
    """
    try:
        with warnings.catch_warnings():
            # numpy 1.x parses "1.0" as an int with a DeprecationWarning;
            # an input without rows warns
            warnings.simplefilter("error")
            return np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None,
                              ndmin=1)
    except (ValueError, Warning):
        return None


def _bulk_entries(lines):
    """ObservedEntries from one array parse of a coordinate file, or None.

    The header is read first, and raises as in ``_scan_entries``.  None
    when the parse rejects an entry line (a comment line too) or a line
    fails a check.  The parse accepts a subset of what ``_scan_entries``
    accepts, with the same values.
    """
    lines = iter(lines)
    (n, m, nnz), _ = _read_header(lines, "coordinate", _COORDINATE)
    table = _load_table(lines, _ENTRY)
    if table is None:
        return None
    rows, cols = table["row"], table["col"]
    # rows - 1 would wrap at the smallest int64
    if table.size != nnz or min(rows.min(), cols.min()) < 1:
        return None
    try:
        return ObservedEntries(n, m, rows - 1, cols - 1, table["val"])
    except ContractViolationError:  # an index too large, a non-finite value or a repeat
        return None


def _scan_entries(lines):
    """ObservedEntries from a coordinate file, checked one line at a time.

    Entries are gathered as they are read, so memory follows the lines
    present, not the count the size line promises.
    """
    (n, m, nnz), body = _read_header(lines, "coordinate", _COORDINATE)
    rows, cols, vals = [], [], []
    seen = {}
    for lineno, text in body:
        if len(vals) >= nnz:
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
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
    if len(vals) != nnz:
        raise ParseError("expected %d entries, found %d" % (nnz, len(vals)))
    return ObservedEntries(n, m, np.array(rows, dtype=np.int64),
                           np.array(cols, dtype=np.int64), np.array(vals))


def write_dense_matrix_market(target, matrix):
    """Write a dense matrix in the column-major array format."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ConfigError("expected a matrix")
    with _opened(target, "w") as stream:
        stream.write("%%MatrixMarket matrix array real general\n")
        stream.write("%d %d\n" % matrix.shape)
        stream.writelines("%r\n" % v for v in matrix.T.ravel().tolist())


def read_dense_matrix_market(source):
    """Read an array real general file into an ndarray.

    Values are gathered as they are read, so memory follows the lines
    present, not the count the size line promises.
    """
    with _opened(source, "r") as stream:
        (rows, cols), body = _read_header(stream, "array", ("rows", "cols"))
        size = rows * cols
        data = []
        for lineno, text in body:
            if len(data) >= size:
                raise ParseError("more than %d values" % size, lineno)
            try:
                v = float(text)
            except ValueError:
                raise ParseError("malformed value", lineno) from None
            if not np.isfinite(v):
                raise ParseError("non-finite value", lineno)
            data.append(v)
    if len(data) != size:
        raise ParseError("expected %d values, found %d" % (size, len(data)))
    return np.array(data).reshape((cols, rows)).T
