/**
 * @file
 * The simulated memory hierarchy: per-thread private L2 caches (LRU,
 * inclusive of nothing — plain allocate-on-miss) above a non-inclusive
 * LLC running the policy under study, as in the paper's Table 1 setup
 * (the L1 filter is folded into the trace generators).
 *
 * Non-inclusive semantics: every L2 miss is a demand access to the LLC;
 * the fetched line fills the L2 always, and fills the LLC unless the LLC
 * policy bypasses it.  Dirty L2 victims write back to the LLC (allocating
 * there on a writeback miss unless bypassed); dirty LLC victims write
 * back to memory.
 */

#ifndef PDP_CACHE_HIERARCHY_H
#define PDP_CACHE_HIERARCHY_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.h"
#include "policies/basic.h"
#include "prefetch/stream_prefetcher.h"
#include "trace/access.h"

namespace pdp
{

/** Where an access was served from. */
enum class HitLevel { L2, Llc, Memory };

/** Outcome of one hierarchy access. */
struct HierarchyResult
{
    HitLevel level = HitLevel::Memory;
    bool llcBypassed = false;
};

/** Hierarchy configuration. */
struct HierarchyConfig
{
    CacheConfig l2 = CacheConfig::paperL2();
    CacheConfig llc = CacheConfig::paperLlc();
    unsigned numThreads = 1;

    bool operator==(const HierarchyConfig &) const = default;
};

/** The two-level simulated hierarchy. */
class Hierarchy
{
  public:
    /**
     * @param config geometry (llc.allowBypass should be true unless an
     *               inclusive LLC is being studied)
     * @param llc_policy replacement policy of the LLC under study
     */
    Hierarchy(const HierarchyConfig &config,
              std::unique_ptr<ReplacementPolicy> llc_policy);

    /** Run one demand access through the hierarchy. */
    HierarchyResult access(const Access &access);

    Cache &llc() { return *llc_; }
    const Cache &llc() const { return *llc_; }
    Cache &l2(unsigned thread = 0) { return *l2s_[thread]; }

    /** Attach a stream prefetcher in front of the LLC (Sec. 6.5). */
    void attachPrefetcher(std::unique_ptr<StreamPrefetcher> prefetcher);

    StreamPrefetcher *prefetcher() { return prefetcher_.get(); }

    void resetStats();

  private:
    std::vector<std::unique_ptr<Cache>> l2s_;
    std::unique_ptr<Cache> llc_;
    std::unique_ptr<StreamPrefetcher> prefetcher_;
};

} // namespace pdp

#endif // PDP_CACHE_HIERARCHY_H
