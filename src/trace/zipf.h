/**
 * @file
 * Zipf(alpha) rank sampler over a bounded footprint.
 *
 * Service-mode tenants (src/service/) model cache-service key
 * popularity: request streams against N distinct lines where line r's
 * probability is proportional to 1 / (r+1)^alpha.  The sampler
 * precomputes the normalized CDF once (O(N) doubles) and draws by
 * inverse-CDF lookup of the caller's uniform draws, so all randomness
 * stays in the caller's Rng and streams stay bit-reproducible.
 *
 * The lookup is a Chen-Asau guide table in front of the CDF: with
 * K = bit_ceil(N) buckets, guide[j] is the first rank whose CDF reaches
 * j/K, so a draw u in [j/K, (j+1)/K) has its rank in
 * [guide[j], guide[j+1]] and a binary search over that slice finds
 * exactly the rank a search over the whole CDF would.  K is a power of
 * two, so u*K and j/K are exact: the bucket boundaries introduce no
 * rounding, and the result is bit-identical to std::lower_bound over
 * the full CDF.  Every bucket is equally likely and the slices of all
 * K buckets together span at most N-1 ranks, so the expected slice
 * holds less than one rank: a draw touches one guide line and about
 * one CDF line instead of walking log2(N) lines of a table that does
 * not fit in the L2.
 *
 * A table depends only on (N, alpha) and never changes once built, so
 * shared() keeps one per distinct pair for the whole process: a tenant
 * stream built for a pair another stream, or an earlier run, already
 * used pays no pow() call.
 */

#ifndef PDP_TRACE_ZIPF_H
#define PDP_TRACE_ZIPF_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "check/contracts.h"

namespace pdp
{

/** Precomputed-CDF Zipf sampler: ranks 0..n-1, P(r) ~ 1/(r+1)^alpha. */
class ZipfSampler
{
  public:
    /** Draws resolved together by rankBlock(). */
    static constexpr unsigned kBlock = 32;
    /** Largest footprint: service footprints are line counts of cache-
     *  sized working sets, far below this. */
    static constexpr uint64_t kMaxFootprint = 1ull << 26;

    /**
     * @param n footprint size (distinct ranks); must be in
     *        [1, kMaxFootprint]
     * @param alpha skew exponent, finite and >= 0; 0 degenerates to
     *        uniform
     */
    ZipfSampler(uint64_t n, double alpha);

    /**
     * The process-wide table for (n, alpha): built on the first call
     * for the pair, returned as is by every later one.  Thread-safe.
     * Tables live until the process exits, at most one per distinct
     * (n, alpha) pair (alpha compared bit for bit).  Rejects the
     * arguments the constructor rejects.
     */
    static std::shared_ptr<const ZipfSampler> shared(uint64_t n,
                                                     double alpha);

    /** The rank of a uniform draw u in [0, 1) (Rng::uniform()): the
     *  first r with cdf[r] >= u. */
    uint32_t
    rank(double u) const
    {
        const uint32_t j = bucket(u);
        const double *lo = cdf_.data() + guide_[j];
        return static_cast<uint32_t>(
            std::lower_bound(lo, cdf_.data() + guide_[j + 1], u) -
            cdf_.data());
    }

    /**
     * rank() of kBlock draws at once.  The guide entries of all draws
     * are prefetched first, then the first CDF line each search will
     * probe, so the block's cache misses overlap instead of queueing
     * behind one another.
     */
    PDP_HOT void rankBlock(const std::array<double, kBlock> &u,
                           std::array<uint32_t, kBlock> &ranks) const;

    uint64_t footprint() const { return cdf_.size(); }
    double alpha() const { return alpha_; }
    /** cdf()[r] = P(rank <= r); the last element is exactly 1.0. */
    std::span<const double> cdf() const { return cdf_; }

  private:
    /** floor(u * K): exact, since K is a power of two. */
    uint32_t
    bucket(double u) const
    {
        return static_cast<uint32_t>(u * buckets_);
    }

    double alpha_;
    std::vector<double> cdf_;
    /** K = bit_ceil(n) buckets. */
    double buckets_;
    /** guide_[j] = first rank with cdf_[rank] >= j/K, j in [0, K]. */
    std::vector<uint32_t> guide_;
};

} // namespace pdp

#endif // PDP_TRACE_ZIPF_H
