#include "model/analytic_model.h"

#include <cmath>

#include "check/check.h"
#include "check/contracts.h"

namespace pdp
{
namespace model
{

namespace
{

/**
 * Hot kernels: the per-point evaluation the explorer runs thousands of
 * times per grid.  Raw pointers and scalars only — pdplint enforces the
 * PDP_HOT purity contract (no allocation, no throw, no containers).
 */

/** Allocation-balance solver knobs (calibrated once against the figure
 *  suites' simulations; see DESIGN.md "Analytic model"). */
constexpr double kPoolFloor = 1.0;  ///< residual unprotected pool (lines)
constexpr double kLamNb = 0.3;      ///< greedy-leg blend weight, SPDP-NB
constexpr double kLamB = 0.5;       ///< greedy-leg blend weight, SPDP-B
constexpr int kMaxIters = 200;
constexpr double kTol = 1e-7;

/**
 * Predicted PDP hit rate + bypass fraction at one d_p: a fixed point of
 * the allocation balance between protected occupancy and capacity.
 *
 * Per miss the policy inserts a line protected for d_p set-accesses; a
 * set holds W of them.  One way per set stays churn (the youngest
 * unprotected victim candidate), leaving W' = W - 1 slots.  Two
 * steady-state regimes:
 *
 *  * Pool regime — the protected working set fits: every insert sticks
 *    (alpha = 1), realized hits equal the RDD demand h(d_p), and the
 *    slack W' - (occ + m*d_p) forms an unprotected pool.
 *
 *  * Churn regime — occupancy binds: an insert sticks only by winning
 *    an aged-out slot, alpha = supply/demand = (W' - s*occ) / (d_p*m).
 *    Chains (consecutive reuses both within d_p, fraction Q of hits,
 *    from the pair histogram) survive re-protection without competing
 *    again, so chain survival obeys sbar = alpha / (1 - Q*(1-alpha)).
 *    Because established chains are never evicted, low-turnover states
 *    select for the most persistent lines: a greedy shortest-first
 *    fill of the W' slots bounds that selection, blended in with
 *    weight lambda * Q (selection is only as strong as the chains).
 *
 *  * Linger (both regimes): a line aging out at d_p waits in the pool
 *    (>= kPoolFloor lines) for eviction, so reuses at i > d_p still
 *    hit with probability exp(-(i - d_p) * m / pool).
 *
 * SPDP-B bypasses the inserts that would not stick: (1 - alpha) * m.
 *
 * `pair` may be null (no chain information): continuity Q = 0, the
 * conservative fallback.  Buckets are (edge = (k+1)*step, count).
 */
PDP_HOT void
balanceKernel(const uint64_t *counts, const uint64_t *pair,
              uint32_t buckets, uint32_t step, uint64_t total, uint32_t dp,
              uint32_t ways, bool bypass, double *hit_rate,
              double *bypass_frac)
{
    *hit_rate = 0.0;
    *bypass_frac = 0.0;
    if (total == 0 || buckets == 0 || step == 0 || dp == 0)
        return;
    const double nt = static_cast<double>(total);
    const double wp = ways > 1 ? static_cast<double>(ways - 1) : 1.0;

    // One pass over the protected range: demand h, chain mass C,
    // occupancy woc, and the greedy shortest-first fill of W'*N_t
    // line-time units.
    double hsum = 0.0, csum = 0.0, wsum = 0.0;
    double greedy_hits = 0.0, greedy_used = 0.0;
    const double greedy_budget = wp * nt;
    bool greedy_full = false;
    uint32_t k = 0;
    for (; k < buckets; ++k) {
        const uint64_t edge = (static_cast<uint64_t>(k) + 1) * step;
        if (edge > dp)
            break;
        const double c = static_cast<double>(counts[k]);
        hsum += c;
        if (pair)
            csum += static_cast<double>(pair[k]);
        wsum += c * static_cast<double>(edge);
        if (!greedy_full && c > 0.0) {
            const double cost = c * static_cast<double>(edge);
            if (greedy_used + cost > greedy_budget) {
                greedy_hits += (greedy_budget - greedy_used) /
                               static_cast<double>(edge);
                greedy_used = greedy_budget;
                greedy_full = true;
            } else {
                greedy_hits += c;
                greedy_used += cost;
            }
        }
    }
    const uint32_t first_beyond = k;
    const double h = hsum / nt;
    if (h <= 0.0 && first_beyond >= buckets)
        return;
    const double chain = csum / nt;
    const double starts = h - chain > 1e-12 ? h - chain : 1e-12;
    const double q = h > 0.0 ? chain / h : 0.0;
    const double woc = wsum / nt;
    const double hr_greedy =
        h > 0.0 ? (greedy_hits / nt < h ? greedy_hits / nt : h) : 0.0;
    const double lam = (bypass ? kLamB : kLamNb) * q;

    double hr = h;
    double alpha = 1.0;
    double s_all = 1.0;
    for (int iter = 0; iter < kMaxIters; ++iter) {
        const double m = 1.0 - hr > 1e-6 ? 1.0 - hr : 1e-6;
        double hr_in;
        double pool;
        const double occ_pool = woc + m * static_cast<double>(dp);
        if (occ_pool <= wp) {
            alpha = 1.0;
            s_all = 1.0;
            hr_in = h;
            pool = wp - occ_pool;
        } else {
            alpha = (wp - s_all * woc) / (static_cast<double>(dp) * m);
            alpha = alpha < 0.0 ? 0.0 : (alpha > 1.0 ? 1.0 : alpha);
            const double denom = 1.0 - q * (1.0 - alpha);
            const double sbar = alpha / (denom > 1e-9 ? denom : 1e-9);
            const double sc = sbar + (1.0 - sbar) * alpha;
            const double hr_uniform_in = chain * sc + starts * alpha;
            const double new_s = h > 0.0 ? hr_uniform_in / h : 0.0;
            s_all = 0.7 * s_all + 0.3 * new_s;
            const double hr_uniform = s_all * h;
            hr_in = (1.0 - lam) * hr_uniform + lam * hr_greedy;
            pool = 0.0;
        }
        pool = pool > kPoolFloor ? pool : kPoolFloor;

        // Linger hits beyond d_p.
        const double reach_prob = hr + (1.0 - hr) * alpha;
        const double rate = m / pool;
        double hr_out = 0.0;
        for (uint32_t j = first_beyond; j < buckets; ++j) {
            if (counts[j] == 0)
                continue;
            const uint64_t edge = (static_cast<uint64_t>(j) + 1) * step;
            const double surv = std::exp(
                -static_cast<double>(edge - dp) * rate);
            if (surv < 1e-4)
                break;
            hr_out += static_cast<double>(counts[j]) / nt * surv *
                      reach_prob;
        }

        const double next = hr_in + hr_out;
        if (next - hr < kTol && hr - next < kTol) {
            hr = next;
            break;
        }
        hr = 0.6 * hr + 0.4 * next;
    }

    *hit_rate = hr < 0.0 ? 0.0 : (hr > 1.0 ? 1.0 : hr);
    if (bypass) {
        const double miss = 1.0 - *hit_rate;
        *bypass_frac = (1.0 - alpha) * (miss > 0.0 ? miss : 0.0);
    }
}

/** LRU hit rate via the stack-distance conversion over a step-1 shape:
 *  SD(d) = sum_{k=1}^{d-1} P(RD > k); a reuse at distance d hits iff
 *  SD(d) < W.  SD is monotone, so the scan stops at the first miss. */
PDP_HOT double
lruKernel(const uint64_t *counts, uint32_t n, uint64_t total, uint32_t ways)
{
    if (total == 0)
        return 0.0;
    const double nt = static_cast<double>(total);
    double sd = 0.0;
    uint64_t cum = 0, hits = 0;
    for (uint32_t d = 1; d <= n; ++d) {
        if (sd >= static_cast<double>(ways))
            break;
        hits += counts[d - 1];
        cum += counts[d - 1];
        sd += static_cast<double>(total - cum) / nt;
    }
    return static_cast<double>(hits) / nt;
}

/** Rebucket a fingerprint to (kSets, step, d_max): set-local distances
 *  scale by sets_ref/kSets, mass past d_max joins the tail.  Both
 *  callers pass a d_max of at least kDMax and a step of at most
 *  kCounterStep, so d_max >= step. */
RddShape
rescaleTo(const RddFingerprint &fp, uint32_t step, uint32_t d_max)
{
    static_assert(kSets >= 1 && kCounterStep >= 1 && kDMax >= kCounterStep,
                  "the model geometry must admit a rescale");
    PDP_CHECK(fp.sets >= 1, "fingerprint carries no set-count geometry");
    const double ratio =
        static_cast<double>(fp.sets) / static_cast<double>(kSets);
    RddShape shape;
    shape.step = step;
    shape.counts.assign((d_max + step - 1) / step, 0);
    shape.total = fp.accesses;
    shape.tail = fp.tailMass;
    const bool has_pair = fp.pairCounts.size() == fp.counts.size();
    if (has_pair)
        shape.pair.assign(shape.counts.size(), 0);
    for (uint32_t d0 = 1; d0 <= fp.counts.size(); ++d0) {
        const uint64_t c = fp.counts[d0 - 1];
        const uint64_t p = has_pair ? fp.pairCounts[d0 - 1] : 0;
        if (c == 0 && p == 0)
            continue;
        uint64_t d1 = static_cast<uint64_t>(std::llround(d0 * ratio));
        if (d1 < 1)
            d1 = 1;
        if (d1 > d_max) {
            // Reuse mass past the target reach joins the tail; chain
            // mass there is indistinguishable from a chain start and is
            // dropped (conservative: continuity is underestimated).
            shape.tail += c;
            continue;
        }
        const uint32_t bucket = static_cast<uint32_t>((d1 - 1) / step);
        shape.counts[bucket] += c;
        if (has_pair)
            shape.pair[bucket] += p;
    }
    return shape;
}

} // namespace

RddShape
AnalyticModel::rescale(const RddFingerprint &fp) const
{
    return rescaleTo(fp, kCounterStep, kDMax);
}

RddShape
AnalyticModel::rescaleFine(const RddFingerprint &fp) const
{
    // The balance solver's linger term and the LRU stack-distance scan
    // both need per-distance resolution and reach beyond d_p; keep the
    // fingerprint's full (rescaled) reach so neither is clipped by the
    // counter geometry.
    const double ratio = static_cast<double>(fp.sets) /
                         static_cast<double>(kSets);
    const uint64_t reach =
        static_cast<uint64_t>(std::llround(fp.dMax * ratio));
    const uint32_t fine_d_max = static_cast<uint32_t>(
        std::min<uint64_t>(std::max<uint64_t>(reach, kDMax), 8192));
    return rescaleTo(fp, /*step=*/1, fine_d_max);
}

Prediction
AnalyticModel::predictShape(const RddShape &coarse, const RddShape &fine,
                            uint32_t pd, bool at_best, bool bypass) const
{
    Prediction pred;
    pred.eCurve = model_.curve(coarse);
    pred.bestPd = model_.bestPd(coarse);
    if (at_best)
        pd = pred.bestPd != 0 ? pred.bestPd : coarse.dMax();
    if (pd < 1)
        pd = 1;
    pred.pd = pd;
    const uint64_t *pair =
        fine.pair.size() == fine.counts.size() && !fine.pair.empty()
            ? fine.pair.data()
            : nullptr;
    balanceKernel(fine.counts.data(), pair,
                  static_cast<uint32_t>(fine.counts.size()), fine.step,
                  fine.total, pd, kWays, bypass, &pred.hitRate,
                  &pred.bypassFraction);
    pred.errorBar = fine.total == 0
        ? 0.0
        : static_cast<double>(fine.tail) / static_cast<double>(fine.total);
    return pred;
}

Prediction
AnalyticModel::predictPdp(const RddFingerprint &fp, bool bypass) const
{
    return predictShape(rescale(fp), rescaleFine(fp), 0, /*at_best=*/true,
                        bypass);
}

Prediction
AnalyticModel::predictPdpAt(const RddFingerprint &fp, uint32_t pd,
                            bool bypass) const
{
    return predictShape(rescale(fp), rescaleFine(fp), pd,
                        /*at_best=*/false, bypass);
}

Prediction
AnalyticModel::predictPdp(const RdCounterArray &rdd, bool bypass) const
{
    if (rdd.frozen())
        throw PredictError(
            "refusing to predict from a frozen RD counter array: a "
            "saturated histogram is truncated at the counter maximum and "
            "would bias every estimate; decay() it first");
    const RddShape shape = toShape(rdd);
    return predictShape(shape, shape, 0, /*at_best=*/true, bypass);
}

Prediction
AnalyticModel::predictLru(const RddFingerprint &fp) const
{
    const RddShape fine = rescaleFine(fp);
    Prediction pred;
    pred.hitRate =
        lruKernel(fine.counts.data(),
                  static_cast<uint32_t>(fine.counts.size()), fine.total,
                  kWays);
    pred.errorBar = fine.total == 0
        ? 0.0
        : static_cast<double>(fine.tail) / static_cast<double>(fine.total);
    return pred;
}

} // namespace model
} // namespace pdp
