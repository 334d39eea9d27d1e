/* One-pass sparse kernels over row-major sorted triplets.

   Each loop walks the pattern once: row i holds the next row_counts[i]
   entries, whose columns are cols[e].  The additions happen in the order
   the numpy kernels in problem.py make them, so the results are bit for
   bit theirs; build with floating-point contraction off, or a fused
   multiply-add changes the bits.  Python checks every shape and dtype
   before a call. */

#include <stdint.h>

/* out[e] = sum_t L[i, t] R[j, t] for entry e at (i, j), t ascending from
   0.0; L is (n, k) and R is (m, k), both C-contiguous. */
void gather_sum(int64_t n, int64_t k, const int64_t *row_counts,
                const int64_t *cols, const double *L, const double *R,
                double *out)
{
    int64_t e = 0;
    for (int64_t i = 0; i < n; i++) {
        const double *l = L + i * k;
        for (int64_t c = 0; c < row_counts[i]; c++, e++) {
            const double *r = R + cols[e] * k;
            double acc = 0.0;
            for (int64_t t = 0; t < k; t++)
                acc += r[t] * l[t];
            out[e] = acc;
        }
    }
}

/* S D into the zeroed (n, k) array out: out[i, t] += D[j, t] s[e] for
   entry e at (i, j), in triplet order; D is (m, k), C-contiguous. */
void apply_rows(int64_t n, int64_t k, const int64_t *row_counts,
                const int64_t *cols, const double *s, const double *D,
                double *out)
{
    int64_t e = 0;
    for (int64_t i = 0; i < n; i++) {
        double *o = out + i * k;
        for (int64_t c = 0; c < row_counts[i]; c++, e++) {
            const double *d = D + cols[e] * k;
            for (int64_t t = 0; t < k; t++)
                o[t] += d[t] * s[e];
        }
    }
}

/* ST D into the zeroed (m, k) array out: out[j, t] += D[i, t] s[e] for
   entry e at (i, j), in triplet order; D is (n, k), C-contiguous. */
void apply_cols(int64_t n, int64_t k, const int64_t *row_counts,
                const int64_t *cols, const double *s, const double *D,
                double *out)
{
    int64_t e = 0;
    for (int64_t i = 0; i < n; i++) {
        const double *d = D + i * k;
        for (int64_t c = 0; c < row_counts[i]; c++, e++) {
            double *o = out + cols[e] * k;
            for (int64_t t = 0; t < k; t++)
                o[t] += d[t] * s[e];
        }
    }
}
