#include "policies/basic.h"

#include "cache/cache.h"
#include "check/check.h"
#include "check/invariant_auditor.h"

namespace pdp
{

void
LruPolicy::attach(Cache &cache, uint32_t num_sets, uint32_t num_ways)
{
    ReplacementPolicy::attach(cache, num_sets, num_ways);
    PDP_CHECK(num_ways >= 1 && num_ways <= 64, name(),
              " rank permutation supports 1..64 ways, got ", num_ways);
    rows_.bind(cache.policyScratchBase(), Cache::policyScratchStride(),
               num_sets, num_ways, 0);
    // Identity permutation: way w starts at rank w.  Victims are only
    // consulted once a set is full, by which point every way has been
    // promoted or demoted at least once.
    for (uint32_t set = 0; set < num_sets; ++set)
        for (uint32_t way = 0; way < num_ways; ++way)
            rows_.row(set)[way] = static_cast<uint8_t>(way);
}

void
LruPolicy::onHit(const AccessContext &ctx, int way)
{
    promote(ctx.set, way);
}

int
LruPolicy::selectVictim(const AccessContext &ctx)
{
    return lruWay(ctx.set);
}

void
LruPolicy::onInsert(const AccessContext &ctx, int way)
{
    promote(ctx.set, way);
}

void
LruPolicy::auditSet(uint32_t set, InvariantReporter &reporter) const
{
    // The ranks of a set form a permutation of 0..ways-1: each value
    // exactly once.  Everything else (victim uniqueness, recency order)
    // follows from it.
    uint64_t seen = 0;
    for (uint32_t way = 0; way < numWays_; ++way) {
        const uint8_t r = rankOf(set, static_cast<int>(way));
        reporter.check(r < numWays_, "lru.rank_range", name(), ": set ",
                       set, " way ", way, " rank ", unsigned{r},
                       " outside [0, ", numWays_, ")");
        if (r < numWays_) {
            reporter.check(!(seen & (1ull << r)), "lru.rank_perm", name(),
                           ": set ", set, " holds rank ", unsigned{r},
                           " twice");
            seen |= 1ull << r;
        }
    }
}

} // namespace pdp
