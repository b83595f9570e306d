/**
 * @file
 * service — the multi-tenant cache-service mode (service/service_sim.h):
 * one scripted open-loop tenant population, replayed identically under
 * each shared policy, with per-tenant SLO attainment as the figure.
 */

#include "runner/suites.h"

#include <ostream>

#include "runner/suite_helpers.h"
#include "service/scenario.h"
#include "util/stats.h"
#include "util/table.h"

namespace pdp
{
namespace runner
{

namespace
{

/** Policies the service scenario is replayed under.  LRU and TA-DRRIP
 *  run as unmanaged baselines; UCP and PDP-x implement
 *  TenantAwarePartition and repartition on every churn step. */
const std::vector<std::string> &
servicePolicies()
{
    static const std::vector<std::string> policies = {
        "LRU", "TA-DRRIP", "UCP", "PDP-2", "PDP-3"};
    return policies;
}

/** "service/t<tenants>c<churn>" — the scenario identity all policies of
 *  one run share (and seed from). */
std::string
serviceTag(const SuiteOptions &options)
{
    return "service/t" + std::to_string(options.serviceTenants) + "c" +
        std::to_string(options.serviceChurn);
}

std::vector<Job>
buildService(const SuiteOptions &options)
{
    ServiceConfig config;
    config.slots = options.serviceTenants;
    // One paper LLC per 4 tenants' worth of capacity: tenants contend
    // hard enough that partitioning matters, but the footprints fit.
    config.hierarchy.llc = CacheConfig::paperLlc(4);
    config.accesses = 6'000'000;
    config.warmup = 1'000'000;
    config.telemetry = telemetryConfig(options);
    config.faultAt = options.serviceFaultAt;
    config = config.scaled(options.scale);

    ServiceScenarioParams params;
    params.tenants = options.serviceTenants;
    params.churn = options.serviceChurn;
    params.accesses = config.accesses;

    const std::string tag = serviceTag(options);
    // The scenario (footprints, skews, SLOs, churn script) and every
    // tenant's stream derive from the same seed, so each policy sees
    // the identical open-loop traffic.
    const uint64_t seed = seedFor(tag);
    const std::vector<TenantSpec> tenants =
        buildServiceScenario(params, seed);

    std::vector<Job> jobs;
    for (const std::string &policy : servicePolicies())
        jobs.push_back(
            serviceJob(tag + "/" + policy, tenants, policy, config, seed));
    return jobs;
}

void
reportService(std::ostream &out, const RecordLookup &lookup)
{
    // The grid is option-parameterized ("service/t<N>c<M>/<policy>"), so
    // recover the scenario tag from the executed keys.
    const std::vector<std::string> keys = lookup.keys();
    if (keys.empty()) {
        out << "==== service: no records ====\n";
        return;
    }
    const std::string tag = keys.front().substr(0, keys.front().rfind('/'));

    out << "==== service: per-tenant SLO attainment (" << tag << ") ====\n";

    Table summary({"policy", "agg hit", "joins", "leaves", "reallocs",
                   "hitSLO", "latSLO", "mean drift"});
    for (const std::string &policy : servicePolicies()) {
        const ServiceResult *r = lookup.service(tag + "/" + policy);
        if (!r) {
            summary.addRow({policy, "-", "-", "-", "-", "-", "-", "-"});
            continue;
        }
        unsigned hitMet = 0, latMet = 0;
        Accumulator drift;
        for (const TenantOutcome &t : r->tenants) {
            hitMet += t.hitRateSloMet ? 1 : 0;
            latMet += t.latencySloMet ? 1 : 0;
            drift.add(t.occupancyDrift);
        }
        const std::string n = std::to_string(r->tenants.size());
        summary.addRow({policy + (r->tenantAware ? " *" : ""),
                        Table::num(r->aggregateHitRate, 3),
                        std::to_string(r->joins), std::to_string(r->leaves),
                        std::to_string(r->reallocs),
                        std::to_string(hitMet) + "/" + n,
                        std::to_string(latMet) + "/" + n,
                        Table::num(drift.mean(), 4)});
    }
    summary.print(out);
    out << "* = tenant-aware partition (quota tracks the policy's "
           "allocation; others measure drift vs an equal share)\n";

    // Per-tenant detail under the strongest tenant-aware policy.
    const std::string detailPolicy = "PDP-3";
    if (const ServiceResult *r = lookup.service(tag + "/" + detailPolicy)) {
        out << "\n---- " << detailPolicy << " per-tenant detail ----\n";
        Table detail({"tenant", "slot", "resident", "requests", "hit rate",
                      "p99 miss", "quota", "occ", "drift", "SLO"});
        for (const TenantOutcome &t : r->tenants) {
            const std::string slo =
                std::string(t.hitRateSloMet ? "h" : "-") +
                (t.latencySloMet ? "l" : "-");
            detail.addRow(
                {t.name, std::to_string(t.slot),
                 std::to_string(t.joinedAt) + ".." + std::to_string(t.leftAt),
                 std::to_string(t.requests), Table::num(t.hitRate, 3),
                 Table::num(t.p99MissCycles, 0), Table::num(t.meanQuota, 3),
                 Table::num(t.meanOccupancy, 3),
                 Table::num(t.occupancyDrift, 4), slo});
        }
        detail.print(out);
        out << "SLO column: h = hit-rate bound met, l = p99-latency "
               "bound met\n";
    }
}

} // namespace

Suite
serviceSuite()
{
    return {"service",
            "multi-tenant cache-service mode: open-loop tenants, "
            "churn, per-tenant SLOs",
            buildService, reportService};
}

} // namespace runner
} // namespace pdp
