/**
 * @file
 * UCP — utility-based cache partitioning (Qureshi & Patt, MICRO 2006).
 *
 * A UMON per thread measures the utility curve; the lookahead algorithm
 * periodically recomputes a way partition; enforcement replaces the LRU
 * line of an over-allocated thread on each miss.
 */

#ifndef PDP_PARTITION_UCP_H
#define PDP_PARTITION_UCP_H

#include <memory>
#include <vector>

#include "check/contracts.h"
#include "partition/tenant_aware.h"
#include "partition/umon.h"
#include "policies/basic.h"
#include "telemetry/source.h"

namespace pdp
{

/** UCP replacement with way-partition enforcement. */
class UcpPolicy : public LruPolicy,
                  public telemetry::Source,
                  public TenantAwarePartition
{
  public:
    /**
     * @param num_threads threads sharing the cache
     * @param repartition_interval accesses between lookahead runs
     */
    explicit UcpPolicy(unsigned num_threads,
                       uint64_t repartition_interval = 1'000'000);

    const std::string &
    name() const override
    {
        static const std::string n = "UCP";
        return n;
    }

    void attach(Cache &cache, uint32_t num_sets, uint32_t num_ways) override;
    void onHit(const AccessContext &ctx, int way) override;
    int selectVictim(const AccessContext &ctx) override;
    void onInsert(const AccessContext &ctx, int way) override;

    void auditGlobal(InvariantReporter &reporter) const override;

    const std::vector<uint32_t> &allocation() const { return alloc_; }
    const Umon &umon() const { return *umon_; }

    // TenantAwarePartition: a joining tenant's slot gets a cleared UMON
    // and the lookahead runs immediately, so way quotas reallocate
    // deterministically at every churn step.
    void beginTenantMode() override;
    void tenantJoin(unsigned slot) override;
    void tenantLeave(unsigned slot) override;
    std::vector<double> tenantQuotas() const override;

    /** Currently active slots. */
    unsigned activeTenants() const;
    bool
    tenantActive(unsigned slot) const
    {
        return slot < active_.size() && active_[slot] != 0;
    }

    /** Epoch telemetry: the current per-thread way allocation. */
    void
    telemetrySnapshot(telemetry::Snapshot &out) const override
    {
        out.setSeries("allocation",
                      std::vector<double>(alloc_.begin(), alloc_.end()));
    }

    /** Fault-injection hook for the checker tests. */
    void
    debugSetAllocation(unsigned thread, uint32_t ways)
    {
        alloc_[thread] = ways;
    }

  private:
    void observe(const AccessContext &ctx);

    unsigned numThreads_;
    uint64_t interval_;
    uint64_t accesses_ = 0;
    std::unique_ptr<Umon> umon_;
    std::vector<uint32_t> alloc_;
    /** Slot liveness; all 1 outside tenant mode (fixed-core runs). */
    std::vector<uint8_t> active_;
};

// UCP replaces within partitions using the inherited LRU ranks in the
// scratch row; the UMON sampler and allocation vector are global.
PDP_SCRATCH_LAYOUT(UcpPolicy, LruRankRow);

} // namespace pdp

#endif // PDP_PARTITION_UCP_H
