#include "cache/hierarchy.h"

#include "check/check.h"

namespace pdp
{

Hierarchy::Hierarchy(const HierarchyConfig &config,
                     std::unique_ptr<ReplacementPolicy> llc_policy)
{
    PDP_CHECK(config.numThreads >= 1, "hierarchy needs a thread");
    for (unsigned t = 0; t < config.numThreads; ++t) {
        CacheConfig l2cfg = config.l2;
        l2cfg.label = "L2." + std::to_string(t);
        l2s_.push_back(
            std::make_unique<Cache>(l2cfg, std::make_unique<LruPolicy>()));
    }
    llc_ = std::make_unique<Cache>(config.llc, std::move(llc_policy));
}

void
Hierarchy::attachPrefetcher(std::unique_ptr<StreamPrefetcher> prefetcher)
{
    prefetcher_ = std::move(prefetcher);
}

HierarchyResult
Hierarchy::access(const Access &access)
{
    HierarchyResult result;

    AccessContext ctx;
    ctx.lineAddr = access.lineAddr;
    ctx.pc = access.pc;
    ctx.threadId = access.threadId;
    ctx.isWrite = access.isWrite;

    Cache &l2 = *l2s_[access.threadId < l2s_.size() ? access.threadId : 0];

    // L2 lookup; a miss allocates in the L2 and may evict a dirty victim.
    // The set index is folded into the context here (and re-folded per
    // level) so Cache::access never has to clone the context.
    ctx.set = l2.setIndex(ctx.lineAddr);
    const AccessOutcome l2_out = l2.access(ctx);
    if (l2_out.hit) {
        result.level = HitLevel::L2;
    } else {
        // Demand access to the LLC.
        ctx.set = llc_->setIndex(ctx.lineAddr);
        const AccessOutcome llc_out = llc_->access(ctx);
        result.level = llc_out.hit ? HitLevel::Llc : HitLevel::Memory;
        result.llcBypassed = llc_out.bypassed;

        // Dirty L2 victim writes back into the LLC.
        if (l2_out.evictedValid && l2_out.evictedDirty) {
            AccessContext wb;
            wb.lineAddr = l2_out.evictedAddr;
            wb.set = llc_->setIndex(wb.lineAddr);
            wb.threadId = l2_out.evictedThread;
            wb.isWrite = true;
            wb.isWriteback = true;
            llc_->access(wb);
        }
    }

    // Prefetcher: trains on the L2 input stream (so detected streams
    // keep prefetching once their lines start hitting in the L2) and
    // fills both levels.  The LLC fill goes through the policy, which is
    // where the Sec. 6.5 prefetch-aware PDP variants act: prefetched
    // lines can be inserted protected, inserted with PD = 1, or bypass
    // the LLC entirely — in every case the L2 copy preserves the
    // prefetch benefit, and the variants only differ in LLC pollution.
    if (prefetcher_) {
        const auto candidates =
            prefetcher_->onDemand(access.lineAddr, !l2_out.hit);
        for (uint64_t addr : candidates) {
            if (l2.contains(addr))
                continue;
            AccessContext pf;
            pf.lineAddr = addr;
            pf.pc = access.pc;
            pf.threadId = access.threadId;
            pf.isPrefetch = true;
            if (!llc_->contains(addr)) {
                pf.set = llc_->setIndex(addr);
                llc_->access(pf);
            }
            pf.set = l2.setIndex(addr);
            const AccessOutcome l2_pf = l2.access(pf);
            if (l2_pf.evictedValid && l2_pf.evictedDirty) {
                AccessContext wb;
                wb.lineAddr = l2_pf.evictedAddr;
                wb.set = llc_->setIndex(wb.lineAddr);
                wb.threadId = l2_pf.evictedThread;
                wb.isWrite = true;
                wb.isWriteback = true;
                llc_->access(wb);
            }
        }
    }

    return result;
}

void
Hierarchy::resetStats()
{
    for (auto &l2 : l2s_)
        l2->resetStats();
    llc_->resetStats();
}

} // namespace pdp
