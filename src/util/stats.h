/**
 * @file
 * Lightweight statistics accumulators used by the simulators and the
 * benchmark harnesses.
 */

#ifndef PDP_UTIL_STATS_H
#define PDP_UTIL_STATS_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace pdp
{

/**
 * Streaming accumulator for mean / min / max of a scalar series.
 *
 * Not thread-safe (plain mutable members, by design — it sits on sim
 * hot paths).  The experiment runner therefore never shares one across
 * jobs: workers produce immutable JobRecords and all Accumulator-based
 * reduction happens on the coordinating thread (see src/runner/job.h).
 */
class Accumulator
{
  public:
    void
    add(double v)
    {
        sum_ += v;
        count_ += 1;
        min_ = count_ == 1 ? v : std::min(min_, v);
        max_ = count_ == 1 ? v : std::max(max_, v);
    }

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double minimum() const { return min_; }
    double maximum() const { return max_; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
        min_ = max_ = 0.0;
    }

  private:
    double sum_ = 0.0;
    uint64_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-range histogram of integer observations.
 *
 * Observations above the range are accumulated in an overflow bucket,
 * mirroring how the paper treats reuse distances above d_max.
 */
class Histogram
{
  public:
    explicit Histogram(size_t buckets = 0) : buckets_(buckets, 0) {}

    void resize(size_t buckets) { buckets_.assign(buckets, 0); overflow_ = 0; }

    void
    add(size_t bucket, uint64_t weight = 1)
    {
        if (bucket < buckets_.size())
            buckets_[bucket] += weight;
        else
            overflow_ += weight;
    }

    uint64_t at(size_t bucket) const { return buckets_[bucket]; }
    size_t size() const { return buckets_.size(); }
    uint64_t overflow() const { return overflow_; }

    uint64_t
    total() const
    {
        uint64_t t = overflow_;
        for (uint64_t b : buckets_)
            t += b;
        return t;
    }

    void
    reset()
    {
        std::fill(buckets_.begin(), buckets_.end(), 0);
        overflow_ = 0;
    }

    const std::vector<uint64_t> &raw() const { return buckets_; }

  private:
    std::vector<uint64_t> buckets_;
    uint64_t overflow_ = 0;
};

/**
 * Log2-bucketed histogram of non-negative integer observations.
 *
 * Bucket 0 holds the value 0; bucket k >= 1 holds values in
 * [2^(k-1), 2^k).  65 buckets cover the full uint64_t range, so there is
 * no overflow case.  Quantile queries return the inclusive upper edge of
 * the bucket containing the requested rank — a deterministic,
 * resolution-honest bound (p99 of miss latencies is "at most 2^k - 1
 * cycles"), which is all the SLO accounting needs from a 65-counter
 * structure.
 */
class Log2Histogram
{
  public:
    void
    add(uint64_t value)
    {
        ++buckets_[bucketOf(value)];
        ++count_;
    }

    uint64_t count() const { return count_; }

    /** Upper edge of the bucket holding the q-quantile observation
     *  (0 < q <= 1); 0 when the histogram is empty. */
    uint64_t
    quantile(double q) const
    {
        if (count_ == 0)
            return 0;
        // rank = ceil(q * count), clamped into [1, count]
        uint64_t rank =
            static_cast<uint64_t>(q * static_cast<double>(count_));
        if (static_cast<double>(rank) < q * static_cast<double>(count_))
            ++rank;
        rank = std::max<uint64_t>(1, std::min(rank, count_));
        uint64_t seen = 0;
        for (unsigned k = 0; k < kBuckets; ++k) {
            seen += buckets_[k];
            if (seen >= rank)
                return upperEdge(k);
        }
        return upperEdge(kBuckets - 1);
    }

    /** The observations added since `base`, an earlier copy of this
     *  histogram, as a histogram of their own. */
    Log2Histogram
    since(const Log2Histogram &base) const
    {
        Log2Histogram delta;
        for (unsigned k = 0; k < kBuckets; ++k)
            delta.buckets_[k] = buckets_[k] - base.buckets_[k];
        delta.count_ = count_ - base.count_;
        return delta;
    }

    uint64_t at(unsigned bucket) const { return buckets_[bucket]; }
    static constexpr unsigned kBuckets = 65;

    /** Bucket index for a value (0 -> 0; otherwise 64 - clz). */
    static unsigned
    bucketOf(uint64_t v)
    {
        return v ? 64 - static_cast<unsigned>(__builtin_clzll(v)) : 0;
    }

    /** Largest value bucket k can hold. */
    static uint64_t
    upperEdge(unsigned k)
    {
        if (k == 0)
            return 0;
        if (k >= 64)
            return ~0ull;
        return (1ull << k) - 1;
    }

    void
    reset()
    {
        buckets_.fill(0);
        count_ = 0;
    }

  private:
    std::array<uint64_t, kBuckets> buckets_{};
    uint64_t count_ = 0;
};

} // namespace pdp

#endif // PDP_UTIL_STATS_H
