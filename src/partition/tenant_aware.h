/**
 * @file
 * Dynamic-tenant extension of the partitioned policies.
 *
 * The Fig. 12 policies are built for a fixed `num_cores`: every thread
 * slot exists for the whole run.  Service mode (src/service/) instead
 * multiplexes a scripted tenant population onto a fixed pool of thread
 * slots — tenants join and leave mid-run, and slots are recycled.  A
 * partitioned policy opts into that lifecycle by implementing
 * TenantAwarePartition; the service simulator discovers the interface
 * with dynamic_cast, exactly how telemetry discovers telemetry::Source.
 *
 * Contract (all deterministic — reallocation must be a pure function of
 * policy state so results stay byte-identical across worker counts):
 *
 *  - beginTenantMode() deactivates every slot after attach(); the
 *    fixed-core constructors keep all slots active so Fig. 12 paths are
 *    untouched.
 *  - tenantJoin(slot) activates a free slot, resets any stale per-slot
 *    monitor state (a previous occupant's RDD / shadow tags / utility
 *    counters must not leak into the new tenant's curve), and
 *    synchronously reallocates quotas.  The service simulator picks the
 *    slot (the lowest free one) for every policy, tenant-aware or not;
 *    joining an active slot fails a PDP_CHECK.
 *  - tenantLeave(slot) deactivates the slot, clears its monitor state
 *    and reallocates.  The leaver's cache lines are NOT flushed — they
 *    age out naturally under the new quotas, which is the interesting
 *    transient the churn experiment measures.
 *  - tenantQuotas() reports the per-slot share of cache capacity the
 *    policy is currently steering toward (way fraction for UCP, model
 *    occupancy share for PD partitioning); inactive slots report 0.
 *    Occupancy-vs-quota drift — the SLO metric — is |actual - quota|.
 */

#ifndef PDP_PARTITION_TENANT_AWARE_H
#define PDP_PARTITION_TENANT_AWARE_H

#include <vector>

namespace pdp
{

/** Lifecycle + quota interface of a dynamically partitioned policy. */
class TenantAwarePartition
{
  public:
    virtual ~TenantAwarePartition() = default;

    /** Enter dynamic mode: all slots inactive (call after attach). */
    virtual void beginTenantMode() = 0;

    /** Activate free `slot` and reallocate. */
    virtual void tenantJoin(unsigned slot) = 0;

    /** Deactivate a slot and reallocate. */
    virtual void tenantLeave(unsigned slot) = 0;

    /** Per-slot target share of cache capacity, in [0, 1]; one entry per
     *  slot, 0 for inactive slots.  Entries of active slots sum to ~1
     *  whenever any tenant is active. */
    virtual std::vector<double> tenantQuotas() const = 0;
};

} // namespace pdp

#endif // PDP_PARTITION_TENANT_AWARE_H
