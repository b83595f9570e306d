#include "partition/ucp.h"

#include <algorithm>

#include "cache/cache.h"
#include "check/check.h"
#include "check/invariant_auditor.h"

namespace pdp
{

UcpPolicy::UcpPolicy(unsigned num_threads, uint64_t repartition_interval)
    : numThreads_(num_threads), interval_(repartition_interval)
{
}

void
UcpPolicy::attach(Cache &cache, uint32_t num_sets, uint32_t num_ways)
{
    LruPolicy::attach(cache, num_sets, num_ways);
    // Monitor coverage scales with the cache (see pdp_partition.cc).
    umon_ = std::make_unique<Umon>(numThreads_, num_sets, num_ways,
                                   std::max<uint32_t>(32, num_sets / 64));
    alloc_.assign(numThreads_,
                  std::max<uint32_t>(1, num_ways / numThreads_));
    active_.assign(numThreads_, 1);
}

void
UcpPolicy::beginTenantMode()
{
    active_.assign(numThreads_, 0);
    for (unsigned t = 0; t < numThreads_; ++t)
        umon_->setActive(t, false);
    // No tenants: no budgets.  Enforcement degrades to plain LRU until
    // the first join, so warmup residue is reclaimable by anyone.
    alloc_.assign(numThreads_, 0);
}

void
UcpPolicy::tenantJoin(unsigned slot)
{
    PDP_CHECK(slot < numThreads_ && !active_[slot],
              "UCP: tenantJoin on active slot ", slot);
    active_[slot] = 1;
    umon_->resetThread(slot);
    umon_->setActive(slot, true);
    alloc_ = umon_->lookaheadPartition();
}

void
UcpPolicy::tenantLeave(unsigned slot)
{
    PDP_CHECK(slot < numThreads_ && active_[slot],
              "UCP: tenantLeave on inactive slot ", slot);
    active_[slot] = 0;
    umon_->setActive(slot, false);
    umon_->resetThread(slot);
    alloc_ = umon_->lookaheadPartition();
}

unsigned
UcpPolicy::activeTenants() const
{
    unsigned n = 0;
    for (uint8_t a : active_)
        n += a;
    return n;
}

std::vector<double>
UcpPolicy::tenantQuotas() const
{
    // Way quotas are uniform across sets, so a slot's capacity share is
    // its way fraction.
    std::vector<double> quotas(numThreads_, 0.0);
    for (unsigned t = 0; t < numThreads_; ++t)
        if (active_[t])
            quotas[t] = static_cast<double>(alloc_[t]) / numWays_;
    return quotas;
}

void
UcpPolicy::observe(const AccessContext &ctx)
{
    if (ctx.isWriteback || ctx.isPrefetch)
        return;
    umon_->observe(ctx.set, ctx.lineAddr, ctx.threadId);
    if (++accesses_ % interval_ == 0) {
        alloc_ = umon_->lookaheadPartition();
        umon_->decay();
    }
}

void
UcpPolicy::onHit(const AccessContext &ctx, int way)
{
    LruPolicy::onHit(ctx, way);
    observe(ctx);
}

int
UcpPolicy::selectVictim(const AccessContext &ctx)
{
    const unsigned requester =
        ctx.threadId < numThreads_ ? ctx.threadId : 0;

    // Current per-thread occupancy of the set.
    std::vector<uint32_t> usage(numThreads_, 0);
    for (uint32_t way = 0; way < numWays_; ++way) {
        const uint8_t owner = cache_->lineThread(ctx.set, way);
        if (owner < numThreads_)
            ++usage[owner];
    }

    auto lru_among = [&](auto &&predicate) {
        int victim = -1;
        int oldest = -1; // larger rank == older (rank ways-1 is LRU)
        for (uint32_t way = 0; way < numWays_; ++way) {
            const uint8_t owner = cache_->lineThread(ctx.set, way);
            if (!predicate(owner))
                continue;
            const int r = rankOf(ctx.set, static_cast<int>(way));
            if (r > oldest) {
                oldest = r;
                victim = static_cast<int>(way);
            }
        }
        return victim;
    };

    int victim = -1;
    if (usage[requester] >= alloc_[requester]) {
        // The requester is at (or above) its budget: recycle its own LRU
        // line so other partitions stay intact.
        victim = lru_among([&](uint8_t owner) { return owner == requester; });
    } else {
        // Under budget: take the LRU line of an over-allocated thread.
        victim = lru_among([&](uint8_t owner) {
            return owner < numThreads_ && usage[owner] > alloc_[owner];
        });
    }
    if (victim < 0)
        victim = lruWay(ctx.set);
    return victim;
}

void
UcpPolicy::onInsert(const AccessContext &ctx, int way)
{
    LruPolicy::onInsert(ctx, way);
    observe(ctx);
}

void
UcpPolicy::auditGlobal(InvariantReporter &reporter) const
{
    LruPolicy::auditGlobal(reporter);
    reporter.check(alloc_.size() == numThreads_, "ucp.alloc_range",
                   name(), ": allocation vector covers ", alloc_.size(),
                   " of ", numThreads_, " threads");
    for (size_t t = 0; t < alloc_.size(); ++t) {
        if (active_[t])
            reporter.check(alloc_[t] >= 1 && alloc_[t] <= numWays_,
                           "ucp.alloc_range", name(), ": thread ", t,
                           " allocation ", alloc_[t], " outside [1, ",
                           numWays_, "]");
        else
            reporter.check(alloc_[t] == 0, "ucp.alloc_range", name(),
                           ": inactive slot ", t, " holds ", alloc_[t],
                           " ways");
    }
}

} // namespace pdp
