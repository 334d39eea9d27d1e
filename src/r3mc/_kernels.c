/* One-pass sparse kernels over row-major sorted triplets, shared out
   among up to nt threads.

   Row i holds the entries row_offsets[i] to row_offsets[i + 1] - 1,
   whose columns cols[e] ascend, and col_offsets[j] counts the entries
   in the columns before j.  Every output is summed by the one thread
   that owns it, in the order the numpy kernels in problem.py make the
   additions, so the results are bit for bit theirs at any thread count:
   outputs indexed by row go out in shares of whole rows, outputs
   indexed by column in slabs of whole columns, each share with about
   as many entries as the others.  Build with floating-point contraction
   off, or a fused multiply-add changes the bits, and without any flag
   that lets the compiler reassociate a sum.  Built without OpenMP, every
   call runs on one thread and nt is not read.  Python checks every
   shape and dtype before a call, and no output overlaps an input. */

#include <stdint.h>

#ifdef _OPENMP
#include <omp.h>
/* the block after it runs once in each thread of a team of at most nt */
#define PARALLEL _Pragma("omp parallel num_threads(nt) if (nt > 1)")
#define THREAD omp_get_thread_num()
#define TEAM omp_get_num_threads()
#else
#define PARALLEL (void)nt;
#define THREAD 0
#define TEAM 1
#endif

/* 1 when built with OpenMP, 0 when every call runs on one thread. */
int openmp(void)
{
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

/* The first e in [lo, hi) with a[e] >= v in the ascending array a, or hi. */
static int64_t lower_bound(const int64_t *a, int64_t lo, int64_t hi, int64_t v)
{
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (a[mid] < v)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Where share t of a team of size starts among the n rows (or columns)
   whose entries the prefix offsets[0..n] counts: at the first i with
   offsets[i] >= floor(total t / size), total = offsets[n], and at n for
   t = size.  With total = q size + r, the floor is q t + r t / size,
   which is exact and cannot overflow (r t < size^2). */
int64_t share_start(const int64_t *offsets, int64_t n, int t, int size)
{
    if (t == size)
        return n;
    const int64_t total = offsets[n];
    return lower_bound(offsets, 0, n, total / size * t + total % size * t / size);
}

/* Rows first to last - 1 of S D into the zeroed out, with s[e] = w[e]
   scale: out[i, t] += D[j, t] s[e] for entry e at (i, j), in triplet
   order; D is (m, k), C-contiguous.  Four entries of a row update its
   output row at once, with the same additions in the same order. */
static void rows_of_product(int64_t first, int64_t last, int64_t k,
                            const int64_t *row_offsets, const int64_t *cols,
                            const double *w, double scale, const double *D,
                            double *restrict out)
{
    for (int64_t i = first; i < last; i++) {
        double *o = out + i * k;
        int64_t e = row_offsets[i];
        const int64_t end = row_offsets[i + 1];
        for (; e + 4 <= end; e += 4) {
            const double *d0 = D + cols[e] * k, *d1 = D + cols[e + 1] * k;
            const double *d2 = D + cols[e + 2] * k, *d3 = D + cols[e + 3] * k;
            const double w0 = w[e] * scale, w1 = w[e + 1] * scale;
            const double w2 = w[e + 2] * scale, w3 = w[e + 3] * scale;
            for (int64_t t = 0; t < k; t++)
                o[t] = (((o[t] + d0[t] * w0) + d1[t] * w1) + d2[t] * w2) + d3[t] * w3;
        }
        for (; e < end; e++) {
            const double *d = D + cols[e] * k;
            const double s = w[e] * scale;
            for (int64_t t = 0; t < k; t++)
                o[t] += d[t] * s;
        }
    }
}

/* Columns first to last - 1 of ST D into the zeroed out, with s[e] =
   w[e] scale: out[j, t] += D[i, t] s[e] for entry e at (i, j), in
   triplet order; D is (n, k), C-contiguous.  Every row is read, and as
   its columns ascend, a search at each inner end of the slab finds the
   row's run of entries in it. */
static void cols_of_product(int64_t first, int64_t last, int64_t n, int64_t m,
                            int64_t k, const int64_t *row_offsets, const int64_t *cols,
                            const double *w, double scale, const double *D,
                            double *restrict out)
{
    if (first == last)
        return;
    for (int64_t i = 0; i < n; i++) {
        const double *d = D + i * k;
        int64_t begin = row_offsets[i], end = row_offsets[i + 1];
        if (first > 0)
            begin = lower_bound(cols, begin, end, first);
        if (last < m)
            end = lower_bound(cols, begin, end, last);
        for (int64_t e = begin; e < end; e++) {
            double *o = out + cols[e] * k;
            const double s = w[e] * scale;
            for (int64_t t = 0; t < k; t++)
                o[t] += d[t] * s;
        }
    }
}

/* out[e] = sum_t L[i, t] R[j, t] for entry e at (i, j), t ascending from
   0.0; L is (n, k) and R is (m, k), both C-contiguous.  A row's entries
   go four at a time, one accumulator each, so four independent sums
   share each load of L's row; its last 0-3 entries go one at a time. */
void gather_sum(int nt, int64_t n, int64_t k, const int64_t *row_offsets,
                const int64_t *cols, const double *L, const double *R,
                double *restrict out)
{
    PARALLEL
    {
        const int64_t last = share_start(row_offsets, n, THREAD + 1, TEAM);
        for (int64_t i = share_start(row_offsets, n, THREAD, TEAM); i < last; i++) {
            const double *l = L + i * k;
            int64_t e = row_offsets[i];
            const int64_t end = row_offsets[i + 1];
            for (; e + 4 <= end; e += 4) {
                const double *r0 = R + cols[e] * k, *r1 = R + cols[e + 1] * k;
                const double *r2 = R + cols[e + 2] * k, *r3 = R + cols[e + 3] * k;
                double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
                for (int64_t t = 0; t < k; t++) {
                    a0 += r0[t] * l[t];
                    a1 += r1[t] * l[t];
                    a2 += r2[t] * l[t];
                    a3 += r3[t] * l[t];
                }
                out[e] = a0;
                out[e + 1] = a1;
                out[e + 2] = a2;
                out[e + 3] = a3;
            }
            for (; e < end; e++) {
                const double *r = R + cols[e] * k;
                double acc = 0.0;
                for (int64_t t = 0; t < k; t++)
                    acc += r[t] * l[t];
                out[e] = acc;
            }
        }
    }
}

/* S D into the zeroed (n, k) array out; D is (m, k), C-contiguous. */
void apply_rows(int nt, int64_t n, int64_t k, const int64_t *row_offsets,
                const int64_t *cols, const double *s, const double *D,
                double *restrict out)
{
    PARALLEL
    rows_of_product(share_start(row_offsets, n, THREAD, TEAM),
                    share_start(row_offsets, n, THREAD + 1, TEAM),
                    k, row_offsets, cols, s, 1.0, D, out);
}

/* ST D into the zeroed (m, k) array out; D is (n, k), C-contiguous. */
void apply_cols(int nt, int64_t n, int64_t m, int64_t k, const int64_t *row_offsets,
                const int64_t *col_offsets, const int64_t *cols, const double *s,
                const double *D, double *restrict out)
{
    PARALLEL
    cols_of_product(share_start(col_offsets, m, THREAD, TEAM),
                    share_start(col_offsets, m, THREAD + 1, TEAM),
                    n, m, k, row_offsets, cols, s, 1.0, D, out);
}

/* apply_rows and apply_cols in one call, with s[e] = err[e] scale: SV
   (n, k) gets S V and STU (m, k) gets ST U, both zeroed on entry; U is
   (n, k) and V is (m, k), C-contiguous.  Each thread takes its share of
   rows of SV, then its slab of columns of STU; err[e] scale is the
   product numpy forms for err * scale. */
void apply_pair(int nt, int64_t n, int64_t m, int64_t k, const int64_t *row_offsets,
                const int64_t *col_offsets, const int64_t *cols, const double *err,
                double scale, const double *U, const double *V, double *restrict SV,
                double *restrict STU)
{
    PARALLEL
    {
        rows_of_product(share_start(row_offsets, n, THREAD, TEAM),
                        share_start(row_offsets, n, THREAD + 1, TEAM),
                        k, row_offsets, cols, err, scale, V, SV);
        cols_of_product(share_start(col_offsets, m, THREAD, TEAM),
                        share_start(col_offsets, m, THREAD + 1, TEAM),
                        n, m, k, row_offsets, cols, err, scale, U, STU);
    }
}
