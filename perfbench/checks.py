"""Correctness checks computed apart from the program.

Every check recomputes what it compares with plain numpy from the
inputs the benchmark generated or from files the program wrote, and
returns a list of failure messages (empty when the check passes).  No
check compares against a saved copy of an earlier run.
"""

import json

import numpy as np


def _lin(rows, cols, m):
    return np.asarray(rows, dtype=np.int64) * m + np.asarray(cols, dtype=np.int64)


def synthesized_values(rows, cols, vals, left, right, n, m, expected_count):
    """Values equal the ground-truth product at the sampled cells, the
    cell count is exact and no cell repeats."""
    out = []
    if vals.size != expected_count:
        out.append("entry count %d, expected %d" % (vals.size, expected_count))
    if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0
                      or cols.max() >= m):
        out.append("sampled cell outside the %d x %d grid" % (n, m))
    if np.unique(_lin(rows, cols, m)).size != vals.size:
        out.append("duplicate sampled cells")
    truth = np.sum(left[rows] * right[:, cols].T, axis=1)
    err = np.max(np.abs(truth - vals)) if vals.size else 0.0
    if err > 1e-12 * max(np.max(np.abs(truth)), 1e-300):
        out.append("values differ from the factor product by %.3e" % err)
    return out


def orthonormal(U, V, tol=1e-10):
    out = []
    for name, q in (("U", U), ("V", V)):
        defect = np.max(np.abs(q.T @ q - np.eye(q.shape[1])))
        if not defect <= tol:
            out.append("%s is not orthonormal (defect %.3e)" % (name, defect))
    return out


def model_on(U, R, V, rows, cols):
    return np.sum((U @ R)[rows] * V[cols], axis=1)


def recomputed_cost(U, R, V, rows, cols, vals):
    e = model_on(U, R, V, rows, cols) - vals
    return float(np.mean(e * e))


def final_cost(U, R, V, rows, cols, vals, reported):
    """The cost recomputed from the factors matches the reported one.

    Rounding in the model values is about 1e-16 of the data while the
    error is at least the stop tolerance, so 1e-6 relative is ample; the
    absolute floor covers a cost at rounding level.
    """
    mine = recomputed_cost(U, R, V, rows, cols, vals)
    floor = 1e-26 * float(np.mean(vals * vals))
    if not abs(mine - reported) <= 1e-6 * abs(reported) + floor:
        return ["recomputed cost %.12e differs from reported %.12e" % (mine, reported)]
    return []


def non_increasing(initial_cost, costs):
    seq = np.concatenate(([initial_cost], np.asarray(costs, dtype=np.float64)))
    rises = np.flatnonzero(seq[1:] > seq[:-1])
    if rises.size:
        k = int(rises[0])
        return ["trace cost rises at iteration %d (%.6e -> %.6e)"
                % (k + 1, seq[k], seq[k + 1])]
    return []


def recovery(U, R, V, truth_fn, rows, cols, n, m, rank, gen, cells, threshold):
    """Relative error on off-pattern cells whose row and column each have
    more than ``rank`` observations (fewer leave the cell undetermined).

    Returns (failures, relative error, excluded cell count, rmse).
    """
    row_deg = np.bincount(rows, minlength=n)
    col_deg = np.bincount(cols, minlength=m)
    cand = gen.integers(0, n * m, size=cells)
    on_pattern = np.isin(cand, _lin(rows, cols, m))
    ci, cj = cand // m, cand % m
    keep = ~on_pattern & (row_deg[ci] > rank) & (col_deg[cj] > rank)
    excluded = int(np.count_nonzero(~on_pattern & ~keep))
    ci, cj = ci[keep], cj[keep]
    truth = truth_fn(ci, cj)
    diff = model_on(U, R, V, ci, cj) - truth
    rel = float(np.linalg.norm(diff) / np.linalg.norm(truth))
    rmse = float(np.sqrt(np.mean(diff * diff)))
    out = []
    if not rel <= threshold:
        out.append("relative recovery error %.3e above %.1e on %d cells"
                   % (rel, threshold, ci.size))
    return out, rel, excluded, rmse


def ratings_splits(users, items, ratings, splits, fractions):
    """The written splits hold exactly the generated ratings, are
    disjoint, cover every rating and have the requested sizes to within
    one entry.  ``splits`` maps name -> (rows, cols, vals) on the dense
    grid; generated ids are re-indexed here independently."""
    out = []
    _, u_idx = np.unique(users, return_inverse=True)
    _, i_idx = np.unique(items, return_inverse=True)
    m = int(i_idx.max()) + 1
    gen_lin = _lin(u_idx, i_idx, m)
    order = np.argsort(gen_lin)
    gen_lin, gen_vals = gen_lin[order], np.asarray(ratings, dtype=np.float64)[order]
    parts = [(name, _lin(r, c, m), v) for name, (r, c, v) in splits.items()]
    all_lin = np.concatenate([p[1] for p in parts])
    all_vals = np.concatenate([p[2] for p in parts])
    if np.unique(all_lin).size != all_lin.size:
        out.append("splits overlap or repeat a rating")
    order = np.argsort(all_lin, kind="stable")
    if all_lin.size != gen_lin.size or np.any(all_lin[order] != gen_lin):
        out.append("splits do not cover exactly the generated ratings")
    elif np.any(all_vals[order] != gen_vals):
        out.append("split values differ from the generated ratings")
    total = gen_lin.size
    for (name, lin, _), frac in zip(parts, fractions):
        if abs(lin.size - frac * total) > 1.0:
            out.append("%s split has %d ratings, requested %.1f"
                       % (name, lin.size, frac * total))
    return out


def heldout(U, R, V, test, train_vals, reported_mse):
    """Test RMSE recomputed from the written factors matches the report
    and beats predicting the train mean.  Returns (failures, rmse)."""
    rows, cols, vals = test
    e = model_on(U, R, V, rows, cols) - vals
    mse = float(np.mean(e * e))
    baseline = float(np.sqrt(np.mean((vals - np.mean(train_vals)) ** 2)))
    out = []
    if not abs(mse - reported_mse) <= 1e-9 * reported_mse:
        out.append("recomputed test MSE %.12e differs from reported %.12e"
                   % (mse, reported_mse))
    if not np.sqrt(mse) < baseline:
        out.append("test RMSE %.4f does not beat the train-mean predictor %.4f"
                   % (np.sqrt(mse), baseline))
    return out, float(np.sqrt(mse))


def best_validation_rank(result):
    """The homotopy returns the rank whose validation error is lowest."""
    ranks = result.get("ranks") or []
    if not ranks:
        return ["homotopy report lists no ranks"]
    best = min(ranks, key=lambda s: s["validation_mse"])
    out = []
    if result["final_rank"] != best["rank"]:
        out.append("homotopy returned rank %d, best validation rank is %d"
                   % (result["final_rank"], best["rank"]))
    if result["validation_mse"] != best["validation_mse"]:
        out.append("returned validation MSE %.12e is not the best %.12e"
                   % (result["validation_mse"], best["validation_mse"]))
    return out


def read_coordinate(path):
    """(n, m, rows, cols, vals) of a Matrix Market coordinate file, 0-based."""
    data = np.loadtxt(path, comments="%", ndmin=2)
    n, m, nnz = (int(v) for v in data[0])
    body = data[1:]
    if body.shape[0] != nnz:
        raise ValueError("%s: %d entries, header says %d" % (path, body.shape[0], nnz))
    return n, m, body[:, 0].astype(np.int64) - 1, body[:, 1].astype(np.int64) - 1, body[:, 2]


def read_dense(path):
    """A Matrix Market array file (column-major) as an ndarray."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip() and not ln.startswith("%")]
    rows, cols = int(lines[0][0]), int(lines[0][1])
    data = np.array([float(ln[0]) for ln in lines[1:]])
    return data.reshape((cols, rows)).T


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_trace_costs(path):
    """Cost column of a trace CSV written by ``complete --trace``."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1] if data.size else np.zeros(0)
