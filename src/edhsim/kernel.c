/* The compiled loops of edhsim: the two binner stepping rules and the
 * photon placement of sample_stream, one C function each.
 *
 * Built on first use by edhsim/kernel.py at -O3 with -ffp-contract=off and
 * never -ffast-math, and called through ctypes. Each stepping loop does the
 * operations of its rule, as edhsim/binner.py states them, in a fixed order:
 * no fused multiply-add, each clamp written as numpy's min(max(x, lo), hi),
 * and the decay taken from libm pow, the call behind Python's float ** int.
 * A loop that gcc vectorizes does each element's operations in the same
 * order, one rounding each, so every result stays bit-identical to the
 * tests' Python reference loop for the rule.
 * The placement repeats numpy's product, sum and clamps on the same draws.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* First index in [lo, hi) whose timestamp is >= x (hi if none): the photons
 * of ts[lo:hi] strictly before x end there, so a photon at x counts late. */
static int64_t lower_bound(const double *ts, int64_t lo, int64_t hi, double x)
{
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (ts[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* First index in [0, n) whose edge is > x (n if none). */
static int64_t upper_bound(const double *edges, int64_t n, double x)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (edges[mid] <= x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* A bank of at least WIDE_BANK binners counts a cycle of 1 to SHORT_CYCLE
 * photons photon-major: each photon is compared with the CVs of a block of
 * up to BLOCK binners at once, in a loop that gcc vectorizes at -O3. Other
 * banks and cycles take one binary search per binner. The searches' time
 * over the block count's, for K binners and m photons in every cycle, on
 * x86-64 with gcc 12 (BENCH_bank_count.json): K = 8 1.2-1.6x and K = 31
 * 1.6-2.2x at every m from 1 to 32, K = 31 0.97x at m = 64, K = 7 0.87x at
 * m = 1, and K = 1 0.4-0.65x at every m. */
#define BLOCK 64
#define WIDE_BANK 8
#define SHORT_CYCLE 32

/* The optimized update of one binner whose cycle gave the raw step dn. */
static inline void optimized_update(double dn, double beta1, double one_m_b1, double beta2,
                                    double coef, double n_bins, double *cv, double *s,
                                    double *dtil)
{
    double d = beta1 * *dtil + one_m_b1 * dn;
    double step = beta2 * *s + coef * d;
    *dtil = d;
    *s = step;
    double x = *cv + step;
    x = x > 0.0 ? x : 0.0;
    *cv = x < n_bins ? x : n_bins;
}

/* Optimized stepping of a bank of binners over cycles [0, n_cycles) of one
 * stream (timestamps ts, cycle offsets offsets); cycle c is the bank's cycle
 * n0 + c.
 *
 * Binner i tracks quantile targets[i]. Every binner follows one step
 * schedule: smoothers beta1 and beta2, step base
 * (1 - beta2) * (k_pct / 100) * n_bins and decay gamma frozen from cycle
 * freeze on. cvs, s and dtil hold each binner's CV and smoother memories
 * and are updated in place. A
 * photon before a CV counts early and one on it late; both ways of counting
 * (see BLOCK) give the same count, so the bank's size never changes a
 * binner's result. */
void edh_optimized_bank(const double *ts, const int64_t *offsets, int64_t n_cycles, int64_t n0,
                        double beta1, double beta2, double base, double gamma, int64_t freeze,
                        int64_t n_targets, const double *targets, double n_bins, double *cvs,
                        double *s, double *dtil)
{
    double one_m_b1 = 1.0 - beta1, coef = 0.0;
    for (int64_t c = 0; c < n_cycles; c++) {
        int64_t n = n0 + c, lo = offsets[c], hi = offsets[c + 1], m = hi - lo;
        if (c == 0 || n <= freeze)
            coef = base * pow(gamma, (double)(n < freeze ? n : freeze));
        if (n_targets >= WIDE_BANK && m > 0 && m <= SHORT_CYCLE) {
            for (int64_t b = 0; b < n_targets; b += BLOCK) {
                int64_t w = n_targets - b < BLOCK ? n_targets - b : BLOCK;
                const double *cv = cvs + b;
                /* doubles, exact up to 2^53: gcc 12 does not vectorize an
                 * integer count of double compares for x86-64's SSE2 */
                double early[BLOCK];
                for (int64_t k = 0; k < w; k++)
                    early[k] = 0.0;
                for (int64_t j = lo; j < hi; j++) {
                    double x = ts[j];
                    for (int64_t k = 0; k < w; k++)
                        early[k] += x < cv[k] ? 1.0 : 0.0;
                }
                for (int64_t k = 0; k < w; k++)
                    optimized_update(targets[b + k] - early[k] / (double)m, beta1,
                                     one_m_b1, beta2, coef, n_bins, &cvs[b + k], &s[b + k],
                                     &dtil[b + k]);
            }
            continue;
        }
        for (int64_t i = 0; i < n_targets; i++) {
            double dn = 0.0;
            if (m > 0)
                dn = targets[i] - (double)(lower_bound(ts, lo, hi, cvs[i]) - lo) / (double)m;
            optimized_update(dn, beta1, one_m_b1, beta2, coef, n_bins, &cvs[i], &s[i],
                             &dtil[i]);
        }
    }
}

/* Fixed stepping over cycles [c0, c1) of one stream.
 *
 * Binner k starts at cvs[k] and is confined to the k-th of the n_edges + 1
 * intervals between the sorted edges (0 and n_bins close the ends); a photon
 * on an edge belongs to the interval above it. On each cycle with m > 0
 * photons in its interval, early of them before its CV, it moves by step on
 * the sign of target - early / m, clamped to its interval. Each run of a
 * cycle's photons that lands in one interval updates that interval's binner
 * only, so the cost grows with photons rather than with intervals.
 *
 * Returns 0, or 1 at a photon that lies in no interval (NaN, or at or past
 * n_bins): its run would be empty and the walk would never advance. */
int edh_fixed_walk(const double *ts, const int64_t *offsets, int64_t c0, int64_t c1,
                   const double *edges, int64_t n_edges, double n_bins, double *cvs,
                   double target, double step)
{
    for (int64_t c = c0; c < c1; c++) {
        int64_t j = offsets[c], end = offsets[c + 1];
        while (j < end) {
            int64_t k = upper_bound(edges, n_edges, ts[j]);
            double lo = k > 0 ? edges[k - 1] : 0.0;
            double hi = k < n_edges ? edges[k] : n_bins;
            int64_t top = lower_bound(ts, j, end, hi);
            if (top == j)
                return 1;
            int64_t early = lower_bound(ts, j, top, cvs[k]) - j;
            double d = target - (double)early / (double)(top - j);
            if (d > 0.0) {
                double cv = cvs[k] + step;
                cvs[k] = cv < hi ? cv : hi;
            } else if (d < 0.0) {
                double cv = cvs[k] - step;
                cvs[k] = cv > lo ? cv : lo;
            }
            j = top;
        }
    }
    return 0;
}

/* Runs longer than this are sorted with qsort, since insertion costs grow
 * with the square of the run; both orders are exact. Insertion was faster
 * up to about 300 photons per cycle on x86-64 with gcc 12. */
#define LONG_RUN 256

static int compare_doubles(const void *a, const void *b)
{
    double x = *(const double *)a, y = *(const double *)b;
    return (x > y) - (x < y);
}

/* Photon placement for sample_stream, after its random draws.
 *
 * cum holds the running sum of the transient's n_bins values (cum[n_bins-1]
 * is the total), offsets[c]:offsets[c+1] are cycle c's photons, and photon i
 * has bin uniform ub[i] and jitter uniform uj[i]. Photon i goes to bin k, the
 * number of knots cum[k] <= ub[i] * total (numpy's right-sided searchsorted),
 * held to n_bins - 1, lands at k + uj[i], held below n_bins, and is inserted
 * into its cycle's ascending run in ts. Tied positions are equal doubles, so
 * the bytes match a (cycle, position) sort.
 *
 * The knot search starts from hint[b], the knots at or below the lower edge
 * of the photon's bucket b = floor(ub * n_bins); one merge pass over cum fills
 * the table. The scan down and up from the hint alone decides k, so the hint
 * only sets the cost: a uniform ub falls in each bucket with chance
 * 1 / n_bins, so the expected scan is about one knot whatever cum looks like. */
void edh_place_photons(const double *cum, int64_t n_bins, const int64_t *offsets,
                       int64_t n_cycles, const double *ub, const double *uj,
                       int64_t *hint, double *ts)
{
    double total = cum[n_bins - 1], nb = (double)n_bins;
    double top = nextafter(nb, 0.0);
    for (int64_t b = 0, k = 0; b < n_bins; b++) {
        double edge = (double)b / nb * total;
        while (k < n_bins && cum[k] <= edge)
            k++;
        hint[b] = k;
    }
    for (int64_t c = 0; c < n_cycles; c++) {
        int64_t start = offsets[c], end = offsets[c + 1];
        int insert = end - start <= LONG_RUN;
        for (int64_t i = start; i < end; i++) {
            double x = ub[i] * total;
            int64_t b = (int64_t)(ub[i] * nb);
            int64_t k = hint[b < n_bins ? b : n_bins - 1];
            while (k > 0 && cum[k - 1] > x)
                k--;
            while (k < n_bins && cum[k] <= x)
                k++;
            double pos = (double)(k < n_bins ? k : n_bins - 1) + uj[i];
            pos = pos < top ? pos : top;
            int64_t m = i;
            while (insert && m > start && ts[m - 1] > pos) {
                ts[m] = ts[m - 1];
                m--;
            }
            ts[m] = pos;
        }
        if (!insert)
            qsort(ts + start, (size_t)(end - start), sizeof *ts, compare_doubles);
    }
}
