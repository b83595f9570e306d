/**
 * @file
 * The multi-tenant cache-service simulator (the "Memshare direction" of
 * ROADMAP.md).
 *
 * Where the Fig. 12 multi-core runs interleave a fixed set of cores
 * round-robin, service mode multiplexes a scripted population of
 * tenants onto one shared LLC through an OPEN-LOOP arrival process:
 * each tenant owns a seeded Poisson clock (trace/tenant_stream.h), the
 * scheduler always serves the earliest pending arrival, and request
 * rates are therefore a property of the tenant — a tenant whose hit
 * rate collapses keeps receiving traffic, it does not politely slow
 * down.  Tenants join and leave mid-run on a scripted lifecycle; slots
 * (thread ids, bounded by CacheStats::kMaxThreads) are recycled
 * lowest-first, so the lifetime tenant count may exceed the concurrent
 * cap.
 *
 * Partitioned policies that implement TenantAwarePartition
 * (partition/tenant_aware.h) are driven through join/leave and
 * reallocate quotas deterministically at every churn step; any other
 * shared policy runs as an unmanaged baseline whose "quota" is an equal
 * share of the active tenants.
 *
 * Per-tenant SLO metrics:
 *   - LLC hit rate over the tenant's residency (per-thread stats deltas)
 *   - occupancy-vs-quota drift: mean |occupied fraction - quota| sampled
 *     on a fixed access cadence (tag-store walk, off the hot path)
 *   - p99 miss latency: the timing model's log2 miss-latency histogram,
 *     reported as the resolution-honest bucket upper edge
 *
 * Everything is deterministic: seeded streams, scripted lifecycle,
 * access-count-anchored sampling.  Results are byte-identical across
 * worker counts like every other suite.
 */

#ifndef PDP_SERVICE_SERVICE_SIM_H
#define PDP_SERVICE_SERVICE_SIM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "sim/timing_model.h"
#include "telemetry/epoch_sampler.h"

namespace pdp
{

/** Per-tenant service-level objectives (0 disables a bound). */
struct TenantSlo
{
    /** Minimum acceptable LLC hit rate over the residency. */
    double minHitRate = 0.0;
    /** Maximum acceptable p99 miss latency in cycles. */
    double maxP99MissCycles = 0.0;
};

/** One scripted tenant of a service run. */
struct TenantSpec
{
    std::string name;
    /** Open-loop arrival rate (relative requests per unit time). */
    double arrivalRate = 1.0;
    /** Distinct lines the tenant touches. */
    uint64_t footprintLines = 1 << 15;
    /** Zipf popularity skew of the footprint. */
    double zipfAlpha = 0.9;
    /** Mean instructions between the tenant's requests. */
    uint32_t meanGap = 8;
    double writeFrac = 0.1;
    /** Measured-access index at which the tenant joins (0 = from the
     *  start, participating in warmup). */
    uint64_t joinAt = 0;
    /** Measured-access index at which it leaves (0 = stays to the end).
     *  At one index, leaves are processed before joins, so a scripted
     *  swap never needs a spare slot. */
    uint64_t leaveAt = 0;
    TenantSlo slo;
};

/** Service run configuration. */
struct ServiceConfig
{
    /** Concurrent tenant slots (<= CacheStats::kMaxThreads). */
    unsigned slots = 16;
    /** Measured requests (scheduler arrivals) across all tenants. */
    uint64_t accesses = 4'000'000;
    /** Warmup requests over the initial tenant set (stats discarded). */
    uint64_t warmup = 500'000;
    TimingParams timing{};
    HierarchyConfig hierarchy{};
    /** Accesses between SLO occupancy samples; 0 = auto
     *  (max(16384, accesses / 64)). */
    uint64_t sloInterval = 0;
    /** Fault injection: trip a PDP_CHECK at this measured-access index
     *  (0 disables).  Exercises the flight recorder end to end — the
     *  failure unwinds through the FlightScope with the event ring and
     *  any open span still live. */
    uint64_t faultAt = 0;
    /** Incremental invariant-audit cadence; 0 disables (see src/check). */
    uint64_t auditEvery = 0;
    bool auditFailFast = false;
    telemetry::TelemetryConfig telemetry{};

    ServiceConfig
    scaled(double factor) const
    {
        ServiceConfig cfg = *this;
        cfg.accesses = static_cast<uint64_t>(accesses * factor);
        cfg.warmup = static_cast<uint64_t>(warmup * factor);
        return cfg;
    }
};

/** Per-tenant outcome (SLO metrics over the tenant's residency). */
struct TenantOutcome
{
    std::string name;
    unsigned slot = 0;
    uint64_t joinedAt = 0; //!< measured-access index of the join
    uint64_t leftAt = 0;   //!< measured-access index of the leave (or end)
    /** Requests the open-loop scheduler issued for the tenant. */
    uint64_t requests = 0;
    /** LLC-level demand accesses / hits / misses (stats deltas). */
    uint64_t llcAccesses = 0;
    uint64_t llcHits = 0;
    uint64_t llcMisses = 0;
    double hitRate = 0.0;
    double ipc = 0.0;
    /** p99 of charged per-miss stall cycles (log2 bucket upper edge). */
    double p99MissCycles = 0.0;
    /** Time-averaged quota / occupied fraction / |occ - quota|. */
    double meanQuota = 0.0;
    double meanOccupancy = 0.0;
    double occupancyDrift = 0.0;
    bool hitRateSloMet = true;
    bool latencySloMet = true;
    /** Burn-rate accounting over the residency (service/slo_monitor.h):
     *  times the tenant crossed into / out of budget over-burn, and the
     *  worst observed burn rate. */
    uint64_t sloBurnEvents = 0;
    uint64_t sloRecoveredEvents = 0;
    double maxBurnRate = 0.0;
};

/** Outcome of one service run under one policy. */
struct ServiceResult
{
    std::string policy;
    /** True when the policy implements TenantAwarePartition. */
    bool tenantAware = false;
    /** Outcomes in TenantSpec order. */
    std::vector<TenantOutcome> tenants;
    uint64_t joins = 0;
    uint64_t leaves = 0;
    /** Quota reallocations: every churn step plus every observed change
     *  of the quota vector between SLO samples. */
    uint64_t reallocs = 0;
    double aggregateHitRate = 0.0;
    /** Requests the SpanTracer head-sampled (0 when tracing is off). */
    uint64_t spansSampled = 0;
    uint64_t auditsRun = 0;
    uint64_t auditViolations = 0;
    std::shared_ptr<const telemetry::RunTelemetry> telemetry;
};

/**
 * Run one scripted tenant population under one shared policy
 * (makeSharedPolicy spec: LRU | UCP | PDP-2 | PDP-3 | ...).  `seed`
 * derives every tenant's stream and clock seeds, so two policies run
 * with the same seed see identical open-loop traffic.
 */
ServiceResult runService(const std::vector<TenantSpec> &tenants,
                         const std::string &policy_spec,
                         const ServiceConfig &config, uint64_t seed);

} // namespace pdp

#endif // PDP_SERVICE_SERVICE_SIM_H
