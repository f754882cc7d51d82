/* The compiled loops of edhsim: the two binner stepping rules, hedh's tree
 * of fixed-stepping levels, ewh's equi-width counts, the random draws and
 * photon placement of sample_stream and the pulse CDF of build_transient,
 * one C function each.
 *
 * Built on first use by edhsim/kernel.py at -O3 with -ffp-contract=off and
 * never -ffast-math, and called through ctypes. Each stepping loop does the
 * operations of its rule, as edhsim/binner.py states them, in a fixed order:
 * no fused multiply-add, each clamp written as numpy's min(max(x, lo), hi),
 * and the decay gamma^e taken from libm pow, the call behind Python's
 * float ** int: read from a table that Python filled with float ** int, or
 * made by pow past the table's end. A loop that gcc vectorizes does
 * each element's operations in the same order, one rounding each, and so
 * does each lane of the bank's wide path, written once with gcc's vector
 * types, so every result stays bit-identical to the tests' Python reference
 * loop for the rule. On x86-64 the wide path is built at 8, 4 and 2 lanes,
 * for AVX-512, AVX2 and baseline x86-64, and the library's constructor picks
 * the widest this CPU has when the library loads (see WIDE_BANK_INSTANCE);
 * everything else, the bank's search path among it, is built once, for
 * baseline x86-64.
 * The draws are numpy's PCG64 and Poisson code, step for step, on
 * unsigned __int128 (gcc and clang have it on 64-bit targets), so numpy
 * only seeds; the placement repeats numpy's product, sum and clamps on
 * those draws.
 * The pulse CDF is Cephes ndtr (S. L. Moshier, 1989), scipy.special.ndtr's
 * code, kept operation for operation.
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

/* A bank of at least WIDE_BANK binners steps every cycle in the wide path
 * (see WIDE_BANK_INSTANCE); a smaller bank takes one binary search per binner
 * and cycle. The searches' time over the wide path's, for K binners and m
 * photons in every cycle, on x86-64 with gcc 12, at 8 / 4 / 2 lanes
 * (BENCH_bank_vector.json): K = 8 to 127 at least 1.07 at every width and
 * every m from 1 to 32, and on empty cycles at least 1.19 / 1.06 / 0.74, the
 * least at K = 9, which the padding to a multiple of 8 makes 16 binners;
 * K = 5 to 7 win at every such m but lose on empty cycles at 2 lanes
 * (0.79-0.91); K = 1 0.40-0.99 at every such m, so a bank of one is searched.
 * At about 300 photons a cycle it is 1.26-2.26 / 0.76-1.44 / 0.35-0.62 for
 * K = 8 to 127 (BENCH_wide_cycles.json), the least at K = 9: the 2-lane
 * instance, on CPUs without AVX2, wins up to about 45 photons a cycle and
 * loses past that. No workload has a cycle past 32 photons, so every width
 * takes one path. */
#define WIDE_BANK 8
/* The wide path steps a bank SLICE binners at a time, each slice padded to
 * a multiple of PAD, the widest instance's lanes. */
#define PAD 8
#define SLICE 512

/* The bank's step schedule: smoothers beta1 and beta2, step base
 * (1 - beta2) * (k_pct / 100) * n_bins and decay gamma^min(n, freeze), where
 * gamma^e is decay[e] for e < n_decay, which the caller filled with
 * gamma ** e, and pow(gamma, e) past it, the same value, so any table length
 * gives the same bits; CVs are held to [0, n_bins]. */
struct schedule {
    double beta1, beta2, base, gamma, n_bins;
    int64_t freeze, n_decay;
    const double *decay;
};

/* The step coefficient base * gamma^min(n, freeze) of the bank's cycle n. */
static inline double step_coef(const struct schedule *p, int64_t n)
{
    int64_t e = n < p->freeze ? n : p->freeze;
    return p->base * (e < p->n_decay ? p->decay[e] : pow(p->gamma, (double)e));
}

/* The signature of both paths: binners [0, n_targets), binner i tracking
 * quantile targets[i] with its CV and smoother memories in cvs[i], s[i] and
 * dtil[i], stepped in place over cycles [0, n_cycles) of one stream
 * (timestamps ts, cycle offsets offsets); cycle c is the bank's cycle n0 + c.
 * A photon before a CV counts early and one on it late. */
typedef void bank_path(const double *ts, const int64_t *offsets, int64_t n_cycles, int64_t n0,
                       struct schedule p, int64_t n_targets, const double *targets, double *cvs,
                       double *s, double *dtil);

/* The search path: one binary search per binner and cycle. */
static void search_bank(const double *ts, const int64_t *offsets, int64_t n_cycles, int64_t n0,
                        struct schedule p, int64_t n_targets, const double *targets, double *cvs,
                        double *s, double *dtil)
{
    double one_m_b1 = 1.0 - p.beta1, coef = 0.0;
    for (int64_t c = 0; c < n_cycles; c++) {
        int64_t n = n0 + c, lo = offsets[c], hi = offsets[c + 1], m = hi - lo;
        if (c == 0 || n <= p.freeze)
            coef = step_coef(&p, n);
        for (int64_t i = 0; i < n_targets; i++) {
            double dn = 0.0;
            if (m > 0)
                dn = targets[i] - (double)(lower_bound(ts, lo, hi, cvs[i]) - lo) / (double)m;
            double d = p.beta1 * dtil[i] + one_m_b1 * dn;
            double step = p.beta2 * s[i] + coef * d;
            dtil[i] = d;
            s[i] = step;
            double x = cvs[i] + step;
            x = x > 0.0 ? x : 0.0;
            cvs[i] = x < p.n_bins ? x : p.n_bins;
        }
    }
}

/* The wide path, as NAME, LANES doubles wide under TARGET: for each chunk of
 * LANES binners, on each cycle, the CVs, memories and targets are loaded
 * once, every photon is compared with all LANES CVs at once and counted into
 * two registers, even and odd photons (doubles, exact to 2^53), the search
 * path's update runs lane by lane in registers, and the chunk is stored
 * once. Each lane does the search path's IEEE operations in its order, one
 * rounding each: -ffp-contract=off keeps AVX-512's FMA out, and each clamp is
 * a compare and a select by mask, so every lane's bits are the search path's.
 * cvs, s, dtil and targets hold a multiple of LANES binners and are aligned
 * to LANES doubles. */
#define WIDE_BANK_INSTANCE(NAME, LANES, TARGET)                                                \
    TARGET static void NAME(const double *ts, const int64_t *offsets, int64_t n_cycles,        \
                            int64_t n0, struct schedule p, int64_t n_targets,                  \
                            const double *targets, double *cvs, double *s, double *dtil)       \
    {                                                                                          \
        typedef double vd __attribute__((vector_size(8 * LANES), may_alias));                  \
        typedef int64_t vi __attribute__((vector_size(8 * LANES), may_alias));                 \
        vd zero = {0.0}, one = zero + 1.0, n_bins = zero + p.n_bins;                           \
        double one_m_b1 = 1.0 - p.beta1, coef = 0.0;                                           \
        for (int64_t c = 0; c < n_cycles; c++) {                                               \
            int64_t n = n0 + c, lo = offsets[c], hi = offsets[c + 1];                          \
            if (c == 0 || n <= p.freeze)                                                       \
                coef = step_coef(&p, n);                                                       \
            for (int64_t k = 0; k < n_targets; k += LANES) {                                   \
                vd cv = *(vd *)(cvs + k), early = zero, odd = zero, dn = zero;                 \
                int64_t j = lo;                                                                \
                for (; j + 1 < hi; j += 2) {                                                   \
                    early += (vd)((vi)one & (ts[j] < cv));                                     \
                    odd += (vd)((vi)one & (ts[j + 1] < cv));                                   \
                }                                                                              \
                if (j < hi)                                                                    \
                    early += (vd)((vi)one & (ts[j] < cv));                                     \
                if (hi > lo)                                                                   \
                    dn = *(const vd *)(targets + k) - (early + odd) / (double)(hi - lo);       \
                vd d = p.beta1 * *(vd *)(dtil + k) + one_m_b1 * dn;                            \
                vd step = p.beta2 * *(vd *)(s + k) + coef * d;                                 \
                *(vd *)(dtil + k) = d;                                                         \
                *(vd *)(s + k) = step;                                                         \
                vd x = cv + step;                                                              \
                x = (vd)((vi)x & (x > 0.0));                                                   \
                vi below = x < n_bins;                                                         \
                *(vd *)(cvs + k) = (vd)(((vi)x & below) | ((vi)n_bins & ~below));              \
            }                                                                                  \
        }                                                                                      \
    }

WIDE_BANK_INSTANCE(wide2, 2, )
static bank_path *wide = wide2;

/* On x86-64 the wide path is built for AVX-512 and AVX2 too, and the
 * library's constructor picks the widest that this CPU has, once per process,
 * as the library loads. */
#if defined(__x86_64__)
WIDE_BANK_INSTANCE(wide4, 4, __attribute__((target("avx2"))))
WIDE_BANK_INSTANCE(wide8, 8, __attribute__((target("avx512f"))))

__attribute__((constructor)) static void pick_wide_path(void)
{
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        wide = wide8;
    else if (__builtin_cpu_supports("avx2"))
        wide = wide4;
}
#endif

/* Optimized stepping of a bank of n_targets binners over cycles [0, n_cycles)
 * of one stream, under the schedule of struct schedule: see bank_path for
 * the arrays. A bank of at least WIDE_BANK binners is copied, SLICE binners
 * at a time, into scratch padded to a multiple of PAD (pad binners at 0,
 * which stay at 0), stepped there over every cycle in the wide path, and
 * copied back. Both paths give the same count and the same update, so the
 * bank's size never changes a binner's result. */
void edh_optimized_bank(const double *ts, const int64_t *offsets, int64_t n_cycles, int64_t n0,
                        double beta1, double beta2, double base, double gamma, int64_t freeze,
                        const double *decay, int64_t n_decay, int64_t n_targets,
                        const double *targets, double n_bins, double *cvs, double *s,
                        double *dtil)
{
    struct schedule p = {beta1, beta2, base, gamma, n_bins, freeze, n_decay, decay};
    if (n_targets < WIDE_BANK) {
        search_bank(ts, offsets, n_cycles, n0, p, n_targets, targets, cvs, s, dtil);
        return;
    }
    _Alignas(64) double tg[SLICE], cv[SLICE], sv[SLICE], dv[SLICE];
    for (int64_t b = 0; b < n_targets; b += SLICE) {
        int64_t w = n_targets - b < SLICE ? n_targets - b : SLICE;
        int64_t padded = (w + PAD - 1) / PAD * PAD;
        for (int64_t k = 0; k < padded; k++) {
            int real = k < w;
            tg[k] = real ? targets[b + k] : 0.0;
            cv[k] = real ? cvs[b + k] : 0.0;
            sv[k] = real ? s[b + k] : 0.0;
            dv[k] = real ? dtil[b + k] : 0.0;
        }
        wide(ts, offsets, n_cycles, n0, p, padded, tg, cv, sv, dv);
        for (int64_t k = 0; k < w; k++) {
            cvs[b + k] = cv[k];
            s[b + k] = sv[k];
            dtil[b + k] = dv[k];
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

/* hedh's tree of fixed-stepping median binners, every level in one call.
 *
 * Level l of n_levels runs over cycles [cuts[l], cuts[l + 1]) with one
 * binner per interval between the n_edges = 2^l - 1 sorted edges found so
 * far, each started at its interval's midpoint (a + b) / 2.0: one
 * edh_fixed_walk at target 0.5 and step step. A binner never leaves its
 * interval, so the level's CVs interleave with the edges, cvs[0] <=
 * edges[0] <= cvs[1] <= ..., and that interleave is the sorted merge. out
 * ends with the 2^n_levels - 1 sorted interior boundaries; cvs is scratch
 * for the 2^(n_levels - 1) CVs of the last level.
 *
 * Returns 0, or 1 at a photon that lies in no interval, as edh_fixed_walk
 * does (out is then unspecified). */
int edh_hedh(const double *ts, const int64_t *offsets, const int64_t *cuts, int64_t n_levels,
             double n_bins, double step, double *cvs, double *out)
{
    for (int64_t level = 0, n_edges = 0; level < n_levels; level++) {
        for (int64_t k = 0; k <= n_edges; k++)
            cvs[k] = ((k > 0 ? out[k - 1] : 0.0) + (k < n_edges ? out[k] : n_bins)) / 2.0;
        if (edh_fixed_walk(ts, offsets, cuts[level], cuts[level + 1], out, n_edges, n_bins, cvs,
                           0.5, step))
            return 1;
        /* from the top down, so each edge is read before its slot is written */
        for (int64_t k = n_edges; k >= 0; k--) {
            if (k < n_edges)
                out[2 * k + 1] = out[k];
            out[2 * k] = cvs[k];
        }
        n_edges = 2 * n_edges + 1;
    }
    return 0;
}

/* ewh's counts: counts[k] += 1 for each of the n timestamps ts whose bin is
 * k, the bin being numpy's ts // width, the floor of the real quotient of
 * ts by the (rounded) width, held to [0, bin_count - 1].
 *
 * x = ts * (1 / width) has two roundings, so it lies within x * 2^-51 of
 * the real quotient. That quotient is below n_bins / width, bin_count up to
 * a rounding, and bin_count counts array entries, so it is far below 2^52
 * and the truncation k of x is the floor or one off it. Unless x
 * lies within x * 2^-50 of an integer, k is the floor; otherwise one exact
 * sign test of k * width - ts, and if need be of (k + 1) * width - ts,
 * corrects it by one. Each fma() is called by name and rounds once, so the
 * sign of its result is the sign of the exact value: a test chosen here,
 * not a contraction chosen by the compiler, so -ffp-contract=off stays. */
void edh_ewh_counts(const double *ts, int64_t n, double width, int64_t bin_count,
                    int64_t *counts)
{
    double inv = 1.0 / width;
    for (int64_t i = 0; i < n; i++) {
        double t = ts[i], x = t * inv, win = x * 0x1p-50;
        int64_t k = (int64_t)x;
        double f = x - (double)k;
        if (f <= win || f >= 1.0 - win) {
            if (fma((double)k, width, -t) > 0.0)
                k--;
            else if (fma((double)(k + 1), width, -t) <= 0.0)
                k++;
        }
        k = k > 0 ? k : 0;
        counts[k < bin_count ? k : bin_count - 1]++;
    }
}

/* numpy's PCG64 (M. E. O'Neill, 2014): a 128-bit LCG, state = state *
 * PCG_MULT + inc, whose 64-bit output is the XSL-RR of the new state.
 * numpy's random() is the output's top 53 bits times 2^-53. A caller passes
 * a state as four words: state high, state low, inc high, inc low. The
 * 128-bit arithmetic is unsigned __int128, which gcc and clang provide on
 * 64-bit targets. */
typedef unsigned __int128 u128;
#define PCG_MULT ((u128)0x2360ED051FC65DA4ULL << 64 | 0x4385DF649FCCF645ULL)

static u128 load_u128(const uint64_t *w)
{
    return (u128)w[0] << 64 | w[1];
}

static void store_u128(uint64_t *w, u128 x)
{
    w[0] = (uint64_t)(x >> 64);
    w[1] = (uint64_t)x;
}

/* random() of the PCG64 whose new state is state */
static inline double pcg_double(u128 state)
{
    uint64_t x = (uint64_t)(state >> 64) ^ (uint64_t)state;
    unsigned rot = (unsigned)(state >> 122);
    x = x >> rot | x << (-rot & 63);
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

/* The PCG64 state delta draws after state: the LCG taken delta times is one
 * step x -> x * m + p, found in O(log delta) squarings (F. B. Brown, 1994). */
static u128 pcg_advance(u128 state, u128 inc, u128 delta)
{
    u128 mult = PCG_MULT, plus = inc, m = 1, p = 0;
    for (; delta; delta >>= 1) {
        if (delta & 1) {
            m *= mult;
            p = p * mult + plus;
        }
        plus *= mult + 1;
        mult *= mult;
    }
    return state * m + p;
}

/* One PCG64's random() draws, in order, made GROUP at a time, so that a
 * refill's steps overlap the work done with the draws before them. On
 * x86-64 with gcc 12, groups of 8 made the placement's draws about a
 * quarter cheaper than one step per draw, and slowed the counts less than
 * groups of 16 or more did; stepping 4 or 8 interleaved copies of the LCG
 * instead of one saved under 2% of counts and placement together
 * (BENCH_kernel_draws.json). buf[next:] are the group's draws not yet
 * taken. */
#define GROUP 8
struct uniforms {
    u128 state, inc;
    double buf[GROUP];
    int next;
    int64_t groups;
};

static void uniforms_start(struct uniforms *u, u128 state, u128 inc)
{
    u->state = state * PCG_MULT + inc;
    u->inc = inc;
    u->next = GROUP;
    u->groups = 0;
}

static inline double uniform(struct uniforms *u)
{
    if (u->next == GROUP) {
        for (int i = 0; i < GROUP; i++) {
            u->buf[i] = pcg_double(u->state);
            u->state = u->state * PCG_MULT + u->inc;
        }
        u->next = 0;
        u->groups++;
    }
    return u->buf[u->next++];
}

/* Draws taken from u so far. */
static int64_t uniforms_taken(const struct uniforms *u)
{
    return u->groups * GROUP - (GROUP - u->next);
}

/* numpy's random_loggam: log Gamma(x) by Stirling's series at x + n >= 7,
 * then n logs down to x. */
static const double LOGGAM_A[] = {
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e+00};
#define LG2PI 1.8378770664093453e+00 /* log(2 pi) */

static double loggam(double x)
{
    if (x == 1.0 || x == 2.0)
        return 0.0;
    int64_t n = x < 7.0 ? (int64_t)(7 - x) : 0;
    double x0 = x + n, x2 = (1.0 / x0) * (1.0 / x0), gl0 = LOGGAM_A[9];
    for (int k = 8; k >= 0; k--) {
        gl0 *= x2;
        gl0 += LOGGAM_A[k];
    }
    double gl = gl0 / x0 + 0.5 * LG2PI + (x0 - 0.5) * log(x0) - x0;
    if (x < 7.0)
        for (int64_t k = 1; k <= n; k++) {
            gl -= log(x0 - 1.0);
            x0 -= 1.0;
        }
    return gl;
}

/* out[i] = loggam(x[i]); out may be x. Exported so that the tests can hold
 * it to numpy's bit for bit: few PTRS draws reach it. */
void edh_loggam(const double *x, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = loggam(x[i]);
}

/* The constants of numpy's PTRS at one lam. */
struct ptrs {
    double lam, loglam, a, b, invalpha, vr;
};

static struct ptrs ptrs_at(double lam)
{
    struct ptrs p = {.lam = lam, .loglam = log(lam)};
    p.b = 0.931 + 2.53 * sqrt(lam);
    p.a = -0.059 + 0.02483 * p.b;
    p.invalpha = 1.1239 + 1.1328 / (p.b - 3.4);
    p.vr = 0.9277 - 3.6224 / (p.b - 2);
    return p;
}

/* numpy's random_poisson_ptrs, transformed rejection with squeeze
 * (W. Hörmann, 1993), for lam >= 10. A k past int64's range converts as
 * numpy's does on the same target and is refused as negative. */
static int64_t poisson_ptrs(struct uniforms *u, const struct ptrs *p)
{
    for (;;) {
        double U = uniform(u) - 0.5;
        double V = uniform(u);
        double us = 0.5 - fabs(U);
        int64_t k = (int64_t)floor((2 * p->a / us + p->b) * U + p->lam + 0.43);
        if (us >= 0.07 && V <= p->vr)
            return k;
        if (k < 0 || (us < 0.013 && V > us))
            continue;
        if (log(V) + log(p->invalpha) - log(p->a / (us * us) + p->b) <=
            -p->lam + k * p->loglam - loggam(k + 1.0))
            return k;
    }
}

/* Poisson counts of n_cycles cycles at mean lam >= 0, drawn as numpy's
 * Generator.poisson(lam, n_cycles) draws them from the PCG64 in pcg: PTRS
 * from 10 on, no draw at 0, and else the multiplication method, with
 * exp(-lam) taken once (numpy takes the same value for every count).
 * offsets[0] = 0 and offsets[c + 1] = offsets[c] + count c; pcg is left
 * after the count draws. Returns 0, or 1 if a running total would pass
 * INT64_MAX (pcg and offsets are then unspecified). */
int edh_poisson_offsets(double lam, int64_t n_cycles, uint64_t *pcg, int64_t *offsets)
{
    u128 state = load_u128(pcg), inc = load_u128(pcg + 2);
    struct uniforms u;
    uniforms_start(&u, state, inc);
    offsets[0] = 0;
    if (lam >= 10) {
        struct ptrs p = ptrs_at(lam);
        for (int64_t c = 0; c < n_cycles; c++) {
            int64_t k = poisson_ptrs(&u, &p);
            if (k > INT64_MAX - offsets[c])
                return 1;
            offsets[c + 1] = offsets[c] + k;
        }
    } else if (lam != 0) {
        /* A count is the number of running products of uniforms above
         * exp(-lam) before the first at or below it. One pass over the
         * draws, with no branch on where a count ends, keeps the
         * processor from mispredicting that end once per cycle; each draw
         * adds at most 1, so the total cannot overflow. */
        double enlam = exp(-lam), prod = 1.0;
        for (int64_t c = 0, total = 0; c < n_cycles;) {
            prod *= uniform(&u);
            int more = prod > enlam;
            total += more;
            offsets[c + 1] = total;
            c += !more;
            prod = more ? prod : 1.0;
        }
    } else
        for (int64_t c = 0; c < n_cycles; c++)
            offsets[c + 1] = 0;
    store_u128(pcg, pcg_advance(state, inc, (u128)uniforms_taken(&u)));
    return 0;
}

/* A cycle of at most LONG_RUN photons takes each photon into its ascending
 * run with no branch on where it lands: from the top down, each slot t keeps
 * min(run[t], max(run[t - 1], pos)), the merge of the run with pos. That
 * reads every slot of the run, where a shifting insertion stops at pos's
 * place but mispredicts that stop about half of the time on i.i.d.
 * positions. Longer runs are sorted with qsort, since the merge grows with
 * the square of the run. Both orders are exact: ties are equal doubles, and
 * no NaN or -0.0 reaches them. Per photon on ready draws, on x86-64 with
 * gcc 12 (BENCH_placement.json), the merge took 12-15 ns at 16-32 photons
 * per cycle, 26 at 96 and 60 at 256, against 25-29, 37-40 and 60 for the
 * shifting insertion and 35-44, 54 and 65-68 for qsort; qsort wins from
 * about 300 on. */
#define LONG_RUN 256

static int compare_doubles(const void *a, const void *b)
{
    double x = *(const double *)a, y = *(const double *)b;
    return (x > y) - (x < y);
}

/* The photon placement of sample_stream, the one loop behind both entries
 * below; returns the knot-scan steps it took.
 *
 * knots[0:n_bins] holds the running sum of the transient's n_bins values
 * (knots[n_bins-1] is the total) and knots[n_bins] is +INFINITY,
 * offsets[c]:offsets[c+1] are cycle c's photons, and photon i has bin
 * uniform ub[i] and jitter uniform uj[i], or, when ub is NULL, the next
 * draws of bin and jit. Photon i goes to bin k, the number of knots
 * knots[k] <= ub[i] * total (numpy's right-sided searchsorted), held to
 * n_bins - 1, lands at k + uj[i], held below n_bins, and is inserted into its
 * cycle's ascending run in ts. Tied positions are equal doubles, so the bytes
 * match a (cycle, position) sort.
 *
 * The knot search starts from hint[b], the knots at or below the lower edge
 * of the photon's bucket b = floor(ub * n_bins); one merge pass over knots
 * fills the table. The scan down and up from the hint alone decides k, so
 * the hint only sets the cost: a uniform ub falls in each bucket with chance
 * 1 / n_bins, so the expected scan is under one knot whatever the knots
 * look like. The scan up stops at the +INFINITY sentinel with no bound test,
 * and takes its first two steps as adds, so the common scan of zero to two
 * knots has no branch. */
static int64_t place_photons(const double *knots, int64_t n_bins, const int64_t *offsets,
                             int64_t n_cycles, const double *ub, const double *uj,
                             struct uniforms *bin, struct uniforms *jit, int64_t *hint,
                             double *ts)
{
    double total = knots[n_bins - 1], nb = (double)n_bins;
    double top = nextafter(nb, 0.0);
    int64_t steps = 0;
    for (int64_t b = 0, k = 0; b < n_bins; b++) {
        double edge = (double)b / nb * total;
        while (knots[k] <= edge)
            k++;
        hint[b] = k;
    }
    for (int64_t c = 0; c < n_cycles; c++) {
        int64_t start = offsets[c], end = offsets[c + 1], len = end - start;
        for (int64_t i = start; i < end; i++) {
            double u = ub ? ub[i] : uniform(bin), j = ub ? uj[i] : uniform(jit);
            double x = u * total;
            int64_t b = (int64_t)(u * nb);
            int64_t k0 = hint[b < n_bins ? b : n_bins - 1], k = k0;
            while (k > 0 && knots[k - 1] > x)
                k--;
            k += knots[k] <= x;
            k += knots[k] <= x;
            while (knots[k] <= x)
                k++;
            steps += k > k0 ? k - k0 : k0 - k;
            double pos = (double)(k < n_bins ? k : n_bins - 1) + j;
            pos = pos < top ? pos : top;
            if (len <= LONG_RUN) {
                ts[i] = INFINITY;
                for (int64_t t = i; t > start; t--) {
                    double above = ts[t - 1] > pos ? ts[t - 1] : pos;
                    ts[t] = ts[t] < above ? ts[t] : above;
                }
                ts[start] = ts[start] < pos ? ts[start] : pos;
            } else
                ts[i] = pos;
        }
        if (len > LONG_RUN)
            qsort(ts + start, (size_t)len, sizeof *ts, compare_doubles);
    }
    return steps;
}

/* The placement on the caller's draws ub and uj; returns the knot-scan
 * steps, knots passed down or up from the hints, so that the tests can
 * hold the hint to its cost. */
int64_t edh_place_photons(const double *knots, int64_t n_bins, const int64_t *offsets,
                          int64_t n_cycles, const double *ub, const double *uj,
                          int64_t *hint, double *ts)
{
    return place_photons(knots, n_bins, offsets, n_cycles, ub, uj, NULL, NULL, hint, ts);
}

/* The placement of the N = offsets[n_cycles] photons whose counts
 * edh_poisson_offsets drew, on the draws numpy's random(N), twice, would
 * give next: the bin uniforms from the PCG64 in pcg and the jitter uniforms
 * from a copy advanced by N, in one pass. pcg is left advanced by 2N, where
 * those two calls leave it. */
void edh_sample_photons(const double *knots, int64_t n_bins, const int64_t *offsets,
                        int64_t n_cycles, uint64_t *pcg, int64_t *hint, double *ts)
{
    u128 state = load_u128(pcg), inc = load_u128(pcg + 2), n = (u128)offsets[n_cycles];
    struct uniforms bin, jit;
    uniforms_start(&bin, state, inc);
    uniforms_start(&jit, pcg_advance(state, inc, n), inc);
    place_photons(knots, n_bins, offsets, n_cycles, NULL, NULL, &bin, &jit, hint, ts);
    store_u128(pcg, pcg_advance(state, inc, 2 * n));
}

/* The pulse CDF of build_transient: a port of Cephes ndtr, erf and erfc
 * (S. L. Moshier, Methods and Programs for Mathematical Functions, 1989),
 * the code scipy.special.ndtr runs. The coefficients, the Horner order of
 * polevl and p1evl, libm exp, the MAXLOG underflow cut and the branch tests
 * are Cephes's, so each result is bit-identical to scipy's. ndtr calls erf
 * only below 1 / sqrt(2) in magnitude and erfc only on |x|, so the branches
 * for the other arguments are left out. */
static const double NDTR_P[] = {
    2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
    4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
    9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2};
static const double NDTR_Q[] = {
    1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
    9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
    1.65666309194161350182E3, 5.57535340817727675546E2};
static const double NDTR_R[] = {
    5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
    6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0};
static const double NDTR_S[] = {
    2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
    1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0};
static const double NDTR_T[] = {
    9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
    7.00332514112805075473E3, 5.55923013010394962768E4};
static const double NDTR_U[] = {
    3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
    2.26290000613890934246E4, 4.92673942608635921086E4};
#define SQRT1_2 0.70710678118654752440
#define MAXLOG 7.09782712893383996843E2 /* log(DBL_MAX) */

/* c[0] x^n + c[1] x^(n-1) + ... + c[n] */
static double polevl(double x, const double *c, int n)
{
    double y = c[0];
    for (int i = 1; i <= n; i++)
        y = y * x + c[i];
    return y;
}

/* x^n + c[0] x^(n-1) + ... + c[n-1]: polevl with a leading 1 left out */
static double p1evl(double x, const double *c, int n)
{
    double y = x + c[0];
    for (int i = 1; i < n; i++)
        y = y * x + c[i];
    return y;
}

/* erf(x) for |x| <= 1 */
static double erf_small(double x)
{
    double z = x * x;
    return x * polevl(z, NDTR_T, 4) / p1evl(z, NDTR_U, 5);
}

/* erfc(x) for x >= 0 */
static double erfc_pos(double x)
{
    if (x < 1.0)
        return 1.0 - erf_small(x);
    double z = -x * x;
    if (z < -MAXLOG)
        return 0.0;
    z = exp(z);
    if (x < 8.0)
        return z * polevl(x, NDTR_P, 8) / p1evl(x, NDTR_Q, 8);
    return z * polevl(x, NDTR_R, 5) / p1evl(x, NDTR_S, 6);
}

/* out[i] = the standard normal CDF at a[i], NaN at NaN; out may be a. */
void edh_ndtr(const double *a, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        double x = a[i] * SQRT1_2, z = fabs(x), y;
        if (isnan(x))
            y = NAN;
        else if (z < SQRT1_2)
            y = 0.5 + 0.5 * erf_small(x);
        else {
            y = 0.5 * erfc_pos(z);
            if (x > 0)
                y = 1.0 - y;
        }
        out[i] = y;
    }
}
