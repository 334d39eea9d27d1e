/* One-pass sparse kernels over row-major sorted triplets.

   Each loop walks the pattern once: row i holds the next row_counts[i]
   entries, whose columns are cols[e].  The additions happen in the order
   the numpy kernels in problem.py make them, so the results are bit for
   bit theirs; build with floating-point contraction off, or a fused
   multiply-add changes the bits, and without any flag that lets the
   compiler reassociate a sum.  Python checks every shape and dtype
   before a call, and no output overlaps an input. */

#include <stdint.h>

/* out[e] = sum_t L[i, t] R[j, t] for entry e at (i, j), t ascending from
   0.0; L is (n, k) and R is (m, k), both C-contiguous.  A row's entries
   go four at a time, one accumulator each, so four independent sums
   share each load of L's row; its last 0-3 entries go one at a time. */
void gather_sum(int64_t n, int64_t k, const int64_t *row_counts,
                const int64_t *cols, const double *L, const double *R,
                double *restrict out)
{
    int64_t e = 0;
    for (int64_t i = 0; i < n; i++) {
        const double *l = L + i * k;
        const int64_t end = e + row_counts[i];
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

/* S D into the zeroed (n, k) array out: out[i, t] += D[j, t] s[e] for
   entry e at (i, j), in triplet order; D is (m, k), C-contiguous. */
void apply_rows(int64_t n, int64_t k, const int64_t *row_counts,
                const int64_t *cols, const double *s, const double *D,
                double *restrict out)
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
                double *restrict out)
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

/* apply_rows and apply_cols in one walk, with s[e] = err[e] scale: SV
   (n, k) gets S V and STU (m, k) gets ST U, both zeroed on entry; U is
   (n, k) and V is (m, k), C-contiguous.  Each bin is still summed in
   triplet order, and err[e] scale is the product numpy forms for
   err * scale. */
void apply_pair(int64_t n, int64_t k, const int64_t *row_counts,
                const int64_t *cols, const double *err, double scale,
                const double *U, const double *V, double *restrict SV,
                double *restrict STU)
{
    int64_t e = 0;
    for (int64_t i = 0; i < n; i++) {
        const double *u = U + i * k;
        double *sv = SV + i * k;
        for (int64_t c = 0; c < row_counts[i]; c++, e++) {
            const double w = err[e] * scale;
            const double *v = V + cols[e] * k;
            double *stu = STU + cols[e] * k;
            for (int64_t t = 0; t < k; t++) {
                sv[t] += v[t] * w;
                stu[t] += u[t] * w;
            }
        }
    }
}
