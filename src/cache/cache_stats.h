/**
 * @file
 * Per-cache, per-thread access statistics.
 */

#ifndef PDP_CACHE_CACHE_STATS_H
#define PDP_CACHE_CACHE_STATS_H

#include <cstdint>
#include <vector>

namespace pdp
{

/** Counter block kept by every cache, globally and per thread. */
struct CacheStats
{
    static constexpr unsigned kMaxThreads = 32;

    uint64_t accesses = 0;       //!< demand accesses (no writebacks)
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t bypasses = 0;       //!< misses that did not allocate
    uint64_t writebackAccesses = 0;
    uint64_t evictionsDirty = 0; //!< dirty victims (writebacks issued)
    uint64_t prefetchFills = 0;

    std::vector<uint64_t> threadAccesses =
        std::vector<uint64_t>(kMaxThreads, 0);
    std::vector<uint64_t> threadHits = std::vector<uint64_t>(kMaxThreads, 0);
    std::vector<uint64_t> threadMisses = std::vector<uint64_t>(kMaxThreads, 0);

    double
    hitRate() const
    {
        return accesses ? static_cast<double>(hits) / accesses : 0.0;
    }

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) / accesses : 0.0;
    }

    double
    bypassRate() const
    {
        return accesses ? static_cast<double>(bypasses) / accesses : 0.0;
    }

    void
    reset()
    {
        *this = CacheStats();
    }
};

} // namespace pdp

#endif // PDP_CACHE_CACHE_STATS_H
