#include "trace/zipf.h"

#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "check/check.h"

namespace pdp
{

namespace
{

void
prefetch(const void *p)
{
#if defined(__GNUC__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
}

} // namespace

ZipfSampler::ZipfSampler(uint64_t n, double alpha) : alpha_(alpha)
{
    PDP_CHECK(n >= 1, "ZipfSampler: footprint must be >= 1, got ", n);
    PDP_CHECK(n <= kMaxFootprint, "ZipfSampler: footprint ", n,
              " exceeds 2^26 lines");
    PDP_CHECK(std::isfinite(alpha) && alpha >= 0.0,
              "ZipfSampler: Zipf alpha ", alpha, " is not finite and >= 0");
    cdf_.resize(n);
    double sum = 0.0;
    for (uint64_t r = 0; r < n; ++r) {
        sum += __builtin_pow(static_cast<double>(r + 1), -alpha);
        cdf_[r] = sum;
    }
    const double inv = 1.0 / sum;
    for (double &c : cdf_)
        c *= inv;
    cdf_.back() = 1.0;

    // Every threshold t in [0, 1] splits the CDF into a prefix below t
    // and a suffix at or above it (the scaled partial sums never
    // decrease, and the final 1.0 is >= t), so one forward walk finds
    // each bucket's first rank.
    const uint64_t k = std::bit_ceil(n);
    buckets_ = static_cast<double>(k);
    guide_.resize(k + 1);
    uint32_t r = 0;
    for (uint64_t j = 0; j <= k; ++j) {
        const double threshold = static_cast<double>(j) / buckets_;
        while (cdf_[r] < threshold)
            ++r;
        guide_[j] = r;
    }
}

std::shared_ptr<const ZipfSampler>
ZipfSampler::shared(uint64_t n, double alpha)
{
    // Keyed on alpha's bits, the map's order is total for every double,
    // NaN included, so a key the constructor rejects finds nothing and
    // is never inserted.  Building under the lock means no two callers
    // build one table.
    static std::mutex mutex;
    static std::map<std::pair<uint64_t, uint64_t>,
                    std::shared_ptr<const ZipfSampler>>
        tables;
    const std::pair<uint64_t, uint64_t> key(n, std::bit_cast<uint64_t>(alpha));
    const std::lock_guard<std::mutex> lock(mutex);
    auto it = tables.find(key);
    if (it == tables.end())
        it = tables.emplace(key, std::make_shared<const ZipfSampler>(n, alpha))
                 .first;
    return it->second;
}

void
ZipfSampler::rankBlock(const std::array<double, kBlock> &u,
                       std::array<uint32_t, kBlock> &ranks) const
{
    std::array<uint32_t, kBlock> bucketOf{};
    for (unsigned i = 0; i < kBlock; ++i) {
        bucketOf[i] = bucket(u[i]);
        prefetch(guide_.data() + bucketOf[i]);
    }
    std::array<uint32_t, kBlock> lo{}, hi{};
    for (unsigned i = 0; i < kBlock; ++i) {
        lo[i] = guide_[bucketOf[i]];
        hi[i] = guide_[bucketOf[i] + 1];
        // lower_bound's first probe.
        prefetch(cdf_.data() + lo[i] + (hi[i] - lo[i]) / 2);
    }
    const double *cdf = cdf_.data();
    for (unsigned i = 0; i < kBlock; ++i)
        ranks[i] = static_cast<uint32_t>(
            std::lower_bound(cdf + lo[i], cdf + hi[i], u[i]) - cdf);
}

} // namespace pdp
