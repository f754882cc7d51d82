/* The two binner stepping rules of edhsim, one C loop each.
 *
 * Built on first use by edhsim/kernel.py with -ffp-contract=off and never
 * -ffast-math, and called through ctypes. Each loop repeats the scalar
 * oracle's arithmetic operation for operation (binner.optimized_step and
 * binner.fixed_step): no fused multiply-add, each clip written as numpy's
 * min(max(x, lo), hi), and the decay taken from libm pow, the call behind
 * Python's float ** int. That keeps every result bit-identical to the oracle.
 */
#include <math.h>
#include <stdint.h>

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

/* Optimized stepping of a bank of binners over cycles [0, n_cycles) of
 * n_streams streams; cycle c is the bank's cycle n0 + c.
 *
 * Binner i = (p * n_variants + v) * n_targets + j tracks quantile
 * targets[i] of stream p (timestamps ts[p], cycle offsets offsets[p]) under
 * step schedule v. Schedule v has smoothers beta1[v], beta2[v], step base
 * (1 - beta2) * (k_pct / 100) * n_bins in base[v], decay gamma[v] frozen from
 * cycle freeze[v] on, and step limit lim[v] (INFINITY when not clipped).
 * cvs, s and dtil hold each binner's CV and smoother memories and are
 * updated in place. */
void edh_optimized_bank(int64_t n_streams, const double *const *ts,
                        const int64_t *const *offsets, int64_t n_cycles, int64_t n0,
                        int64_t n_variants, const double *beta1, const double *beta2,
                        const double *base, const double *gamma, const int64_t *freeze,
                        const double *lim, int64_t n_targets, const double *targets,
                        double n_bins, double *cvs, double *s, double *dtil)
{
    for (int64_t c = 0; c < n_cycles; c++) {
        int64_t n = n0 + c;
        for (int64_t v = 0; v < n_variants; v++) {
            double b1 = beta1[v], one_m_b1 = 1.0 - b1, b2 = beta2[v], l = lim[v];
            double coef = base[v] * pow(gamma[v], (double)(n < freeze[v] ? n : freeze[v]));
            for (int64_t p = 0; p < n_streams; p++) {
                int64_t lo = offsets[p][c], hi = offsets[p][c + 1];
                int64_t i = (p * n_variants + v) * n_targets;
                for (int64_t end = i + n_targets; i < end; i++) {
                    double dn = 0.0;
                    if (hi > lo) {
                        int64_t early = lower_bound(ts[p], lo, hi, cvs[i]) - lo;
                        dn = targets[i] - (double)early / (double)(hi - lo);
                    }
                    dtil[i] = b1 * dtil[i] + one_m_b1 * dn;
                    double step = b2 * s[i] + coef * dtil[i];
                    step = step > -l ? step : -l;
                    step = step < l ? step : l;
                    s[i] = step;
                    double cv = cvs[i] + step;
                    cv = cv > 0.0 ? cv : 0.0;
                    cvs[i] = cv < n_bins ? cv : n_bins;
                }
            }
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
 * only, so the cost grows with photons rather than with intervals. */
void edh_fixed_walk(const double *ts, const int64_t *offsets, int64_t c0, int64_t c1,
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
}
