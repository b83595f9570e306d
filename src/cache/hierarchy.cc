#include "cache/hierarchy.h"

#include "check/check.h"

namespace pdp
{

PrivateL2s::PrivateL2s(const HierarchyConfig &config)
    : llcSetMask_(config.llc.numSets() - 1)
{
    PDP_CHECK(config.numThreads >= 1, "hierarchy needs a thread");
    for (unsigned t = 0; t < config.numThreads; ++t) {
        CacheConfig l2cfg = config.l2;
        l2cfg.label = "L2." + std::to_string(t);
        l2s_.push_back(
            std::make_unique<Cache>(l2cfg, std::make_unique<LruPolicy>()));
    }
}

void
PrivateL2s::attachPrefetcher(std::unique_ptr<StreamPrefetcher> prefetcher)
{
    prefetcher_ = std::move(prefetcher);
}

void
PrivateL2s::resetStats()
{
    for (auto &l2 : l2s_)
        l2->resetStats();
}

Hierarchy::Hierarchy(const HierarchyConfig &config,
                     std::unique_ptr<ReplacementPolicy> llc_policy)
    : l2s_(config),
      llc_(std::make_unique<Cache>(config.llc, std::move(llc_policy)))
{
}

HierarchyResult
Hierarchy::access(const Access &access)
{
    HierarchyResult result;
    const bool l2Hit = l2s_.walk(access, [&](const AccessContext &ctx) {
        if (ctx.isPrefetch) {
            if (!llc_->contains(ctx.lineAddr))
                llc_->access(ctx);
        } else if (ctx.isWriteback) {
            llc_->access(ctx);
        } else {
            const AccessOutcome out = llc_->access(ctx);
            result.level = out.hit ? HitLevel::Llc : HitLevel::Memory;
            result.llcBypassed = out.bypassed;
        }
    });
    if (l2Hit)
        result.level = HitLevel::L2;
    return result;
}

void
Hierarchy::resetStats()
{
    l2s_.resetStats();
    llc_->resetStats();
}

} // namespace pdp
