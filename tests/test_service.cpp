/**
 * @file
 * Tests for the multi-tenant cache-service mode (src/service/): scenario
 * scripting, open-loop determinism, pinned per-tenant outcomes, a
 * request stream and slot assignment that do not depend on the policy,
 * tenant spec validation, invariant cleanliness through tenant churn at
 * maximum audit cadence, lifecycle/realloc event emission, and
 * per-tenant SLO metric plumbing.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <limits>

#include "check/check.h"
#include "runner/results_sink.h"
#include "service/scenario.h"
#include "service/service_sim.h"
#include "trace/zipf.h"

using namespace pdp;

namespace
{

/** A seconds-long population: 3 initial tenants, one scripted swap. */
std::vector<TenantSpec>
smallTenants()
{
    std::vector<TenantSpec> tenants(4);
    tenants[0].name = "alpha";
    tenants[0].arrivalRate = 2.0;
    tenants[0].footprintLines = 1 << 10;
    tenants[1].name = "beta";
    tenants[1].arrivalRate = 1.0;
    tenants[1].footprintLines = 1 << 12;
    tenants[1].zipfAlpha = 0.6;
    tenants[1].leaveAt = 20'000;
    tenants[2].name = "gamma";
    tenants[2].arrivalRate = 4.0;
    tenants[2].footprintLines = 1 << 11;
    tenants[3].name = "delta";
    tenants[3].footprintLines = 1 << 10;
    tenants[3].joinAt = 20'000; // swaps into beta's slot
    return tenants;
}

ServiceConfig
smallConfig()
{
    ServiceConfig config;
    config.slots = 4;
    config.accesses = 60'000;
    config.warmup = 10'000;
    config.sloInterval = 4'000;
    return config;
}

} // namespace

TEST(ServiceScenario, LifetimePopulationAndChurnScript)
{
    ServiceScenarioParams params;
    params.tenants = 8;
    params.churn = 3;
    params.accesses = 400'000;
    const auto tenants = buildServiceScenario(params, 42);
    ASSERT_EQ(tenants.size(), 11u); // 8 initial + 3 churn joiners
    unsigned leavers = 0, lateJoiners = 0;
    for (const TenantSpec &t : tenants) {
        leavers += t.leaveAt > 0 ? 1 : 0;
        lateJoiners += t.joinAt > 0 ? 1 : 0;
        if (t.leaveAt > 0) {
            EXPECT_GT(t.leaveAt, t.joinAt);
        }
    }
    EXPECT_EQ(leavers, 3u);
    EXPECT_EQ(lateJoiners, 3u);
    // Identical (params, seed) => identical script.
    const auto again = buildServiceScenario(params, 42);
    for (size_t i = 0; i < tenants.size(); ++i) {
        EXPECT_EQ(tenants[i].name, again[i].name);
        EXPECT_EQ(tenants[i].footprintLines, again[i].footprintLines);
        EXPECT_EQ(tenants[i].joinAt, again[i].joinAt);
        EXPECT_EQ(tenants[i].leaveAt, again[i].leaveAt);
    }
}

TEST(ServiceScenario, RejectsChurnSwallowingThePopulation)
{
    ServiceScenarioParams params;
    params.tenants = 4;
    params.churn = 4;
    EXPECT_THROW(buildServiceScenario(params, 1), CheckFailure);
}

TEST(ServiceSim, DeterministicAcrossRepeatedRuns)
{
    const auto tenants = smallTenants();
    const ServiceConfig config = smallConfig();
    for (const char *policy : {"LRU", "UCP", "PDP-3"}) {
        const ServiceResult a = runService(tenants, policy, config, 7);
        const ServiceResult b = runService(tenants, policy, config, 7);
        // The serialized form covers every deterministic field at once.
        EXPECT_EQ(runner::toJson(a).dump(2), runner::toJson(b).dump(2))
            << policy;
    }
}

TEST(ServiceSim, ChurnOutcomesArePinned)
{
    // Every tenant's requests and LLC hits/misses under a small churn
    // scenario are fixed numbers.  They move if the Rng draw order of a
    // stream, the scheduler's tie-break, slot recycling or the Zipf
    // lookup changes; run-to-run determinism alone would not notice.
    // The small hierarchy makes the LLC see reuse within 25k requests.
    ServiceScenarioParams params;
    params.tenants = 8;
    params.churn = 2;
    params.accesses = 20'000;
    const auto tenants = buildServiceScenario(params, 11);
    ASSERT_EQ(tenants.size(), 10u);
    ServiceConfig config;
    config.slots = 8;
    config.warmup = 5'000;
    config.accesses = 20'000;
    config.sloInterval = 2'000;
    config.hierarchy.l2.sizeBytes = 16 << 10;
    config.hierarchy.llc.sizeBytes = 256 << 10;

    using Row = std::array<uint64_t, 3>; // requests, llcHits, llcMisses
    struct Pinned
    {
        const char *policy;
        uint64_t reallocs;
        std::array<Row, 10> tenants;
    };
    const Pinned pinned[] = {
        {"LRU", 12,
         {{{226, 2, 182}, {1247, 34, 735}, {3342, 403, 2229},
           {427, 0, 421}, {3461, 260, 3063}, {1736, 36, 753},
           {893, 14, 776}, {1727, 47, 690}, {4605, 540, 1974},
           {2336, 216, 1250}}}},
        {"UCP", 12,
         {{{226, 4, 180}, {1247, 50, 719}, {3342, 464, 2168},
           {427, 2, 419}, {3461, 248, 3075}, {1736, 77, 712},
           {893, 25, 765}, {1727, 87, 650}, {4605, 245, 2269},
           {2336, 73, 1393}}}},
        {"PDP-3", 12,
         {{{226, 4, 180}, {1247, 69, 700}, {3342, 599, 2033},
           {427, 3, 418}, {3461, 344, 2979}, {1736, 109, 680},
           {893, 46, 744}, {1727, 115, 622}, {4605, 2, 2512},
           {2336, 0, 1466}}}},
    };
    for (const Pinned &want : pinned) {
        const ServiceResult result =
            runService(tenants, want.policy, config, 7);
        EXPECT_EQ(result.reallocs, want.reallocs) << want.policy;
        ASSERT_EQ(result.tenants.size(), want.tenants.size());
        for (size_t i = 0; i < want.tenants.size(); ++i) {
            const TenantOutcome &t = result.tenants[i];
            const Row got = {t.requests, t.llcHits, t.llcMisses};
            EXPECT_EQ(got, want.tenants[i]) << want.policy << " " << t.name;
        }
    }
}

TEST(ServiceSim, RequestStreamDoesNotDependOnThePolicy)
{
    // The scheduler reads only the tenants' clocks, and runService
    // seats every joining tenant on the lowest free slot, whatever the
    // policy, so every policy serves each tenant the same requests on
    // the same slot.  Six slots for at most five live tenants: every join
    // finds two or more free slots, so any other slot rule would show.
    const struct
    {
        const char *name;
        uint64_t joinAt, leaveAt, footprint;
        double rate, alpha;
    } script[] = {
        {"t0", 0, 6'000, 1 << 10, 2.0, 0.9},
        {"t1", 0, 4'000, 1 << 12, 1.0, 0.6},
        {"t2", 0, 0, 1 << 11, 4.0, 1.1},
        {"t3", 0, 9'000, 1 << 10, 1.0, 0.9},
        {"t4", 5'000, 0, 1 << 11, 2.0, 0.8},
        {"t5", 7'000, 0, 1 << 10, 8.0, 1.0},
        {"t6", 7'000, 11'000, 1 << 12, 1.0, 0.6},
        {"t7", 10'000, 0, 1 << 11, 2.0, 0.9},
    };
    std::vector<TenantSpec> tenants;
    for (const auto &row : script) {
        TenantSpec t;
        t.name = row.name;
        t.joinAt = row.joinAt;
        t.leaveAt = row.leaveAt;
        t.footprintLines = row.footprint;
        t.arrivalRate = row.rate;
        t.zipfAlpha = row.alpha;
        tenants.push_back(t);
    }
    ServiceConfig config = smallConfig();
    config.slots = 6;
    config.accesses = 14'000;
    config.warmup = 2'000;
    config.sloInterval = 2'000;

    using Row = std::array<uint64_t, 4>; // slot, requests, joinedAt, leftAt
    auto rows = [&](const char *policy) {
        const ServiceResult result = runService(tenants, policy, config, 5);
        std::vector<Row> out;
        for (const TenantOutcome &t : result.tenants)
            out.push_back({t.slot, t.requests, t.joinedAt, t.leftAt});
        return out;
    };
    const std::vector<Row> lru = rows("LRU");
    // Lowest free slot at each join: t4 takes t1's slot 1 over 4 and 5;
    // t5 takes t0's slot 0, t6 the untouched slot 4; t7 takes t3's 3.
    const unsigned wantSlots[] = {0, 1, 2, 3, 1, 0, 4, 3};
    ASSERT_EQ(lru.size(), tenants.size());
    for (size_t i = 0; i < lru.size(); ++i) {
        EXPECT_EQ(lru[i][0], wantSlots[i]) << tenants[i].name;
        EXPECT_GT(lru[i][1], 0u) << tenants[i].name;
    }
    for (const char *policy : {"TA-DRRIP", "UCP", "PDP-2", "PDP-3"})
        EXPECT_EQ(rows(policy), lru) << policy;
}

namespace
{

/** Run smallTenants() with one field of the late joiner "delta" broken;
 *  the run must refuse it up front, naming the tenant and the field. */
void
expectRejected(const std::function<void(TenantSpec &)> &breakSpec,
               const std::string &field)
{
    auto tenants = smallTenants();
    breakSpec(tenants[3]);
    try {
        runService(tenants, "LRU", smallConfig(), 7);
        ADD_FAILURE() << "accepted a bad " << field;
    } catch (const CheckFailure &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("delta"), std::string::npos) << what;
        EXPECT_NE(what.find(field), std::string::npos) << what;
    }
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

} // namespace

TEST(ServiceSim, RejectsArrivalRateThatIsNotFiniteAndPositive)
{
    for (const double rate : {0.0, -1.0, kInf, kNan})
        expectRejected([&](TenantSpec &t) { t.arrivalRate = rate; },
                       "arrival rate");
    auto tenants = smallTenants();
    tenants[0].arrivalRate = kInf;
    EXPECT_THROW(runService(tenants, "LRU", smallConfig(), 7),
                 CheckFailure);
}

TEST(ServiceSim, RejectsZipfAlphaThatIsNotFiniteAndNonNegative)
{
    for (const double alpha : {-0.1, kInf, kNan})
        expectRejected([&](TenantSpec &t) { t.zipfAlpha = alpha; },
                       "Zipf alpha");
    auto tenants = smallTenants();
    tenants[0].zipfAlpha = -1.0;
    EXPECT_THROW(runService(tenants, "LRU", smallConfig(), 7),
                 CheckFailure);
    // The table itself refuses them, so no caller and no registry key
    // sees one.
    for (const double alpha : {-0.1, -kInf, kInf, kNan}) {
        try {
            const ZipfSampler zipf(1024, alpha);
            ADD_FAILURE() << "ZipfSampler accepted alpha " << alpha;
        } catch (const CheckFailure &e) {
            EXPECT_NE(std::string(e.what()).find("Zipf alpha"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_THROW(ZipfSampler::shared(1024, alpha), CheckFailure);
    }
}

TEST(ServiceSim, RejectsWriteFractionOutsideUnitInterval)
{
    for (const double frac : {-0.01, 1.01, kNan})
        expectRejected([&](TenantSpec &t) { t.writeFrac = frac; },
                       "write fraction");
    auto tenants = smallTenants();
    tenants[0].writeFrac = 2.0;
    EXPECT_THROW(runService(tenants, "LRU", smallConfig(), 7),
                 CheckFailure);
}

TEST(ServiceSim, RejectsFootprintOutsideTableBounds)
{
    for (const uint64_t lines : {uint64_t{0}, (uint64_t{1} << 26) + 1})
        expectRejected([&](TenantSpec &t) { t.footprintLines = lines; },
                       "footprint");
    auto tenants = smallTenants();
    tenants[0].footprintLines = 0;
    EXPECT_THROW(runService(tenants, "LRU", smallConfig(), 7),
                 CheckFailure);
}

TEST(ServiceSim, RejectsZeroMeanGap)
{
    expectRejected([](TenantSpec &t) { t.meanGap = 0; }, "mean gap");
}

TEST(ServiceSim, ChurnIsAuditCleanAtMaxCadence)
{
    const auto tenants = smallTenants();
    ServiceConfig config = smallConfig();
    config.auditEvery = 1; // throw at the offending access
    for (const char *policy : {"UCP", "PDP-2", "PDP-3"}) {
        ServiceResult result;
        EXPECT_NO_THROW(result = runService(tenants, policy, config, 7))
            << policy;
        EXPECT_TRUE(result.tenantAware) << policy;
        EXPECT_GT(result.auditsRun, 0u) << policy;
    }
}

TEST(ServiceSim, EmitsLifecycleAndReallocEvents)
{
    const auto tenants = smallTenants();
    ServiceConfig config = smallConfig();
    config.telemetry.enabled = true;
    config.telemetry.traceEvents = true;
    const ServiceResult result = runService(tenants, "PDP-3", config, 7);
    ASSERT_NE(result.telemetry, nullptr);
    unsigned joins = 0, leaves = 0, reallocs = 0;
    for (const telemetry::TraceEvent &event : result.telemetry->events) {
        joins += event.type == "tenant_join" ? 1 : 0;
        leaves += event.type == "tenant_leave" ? 1 : 0;
        reallocs += event.type == "partition_realloc" ? 1 : 0;
    }
    // The scripted swap: one mid-run join, one leave, and at least one
    // partition_realloc per churn edge.
    EXPECT_EQ(joins, 1u);
    EXPECT_EQ(leaves, 1u);
    EXPECT_GE(reallocs, 2u);
    EXPECT_EQ(result.joins, 4u);
    EXPECT_EQ(result.leaves, 1u);
    EXPECT_GE(result.reallocs, result.joins + result.leaves);
}

TEST(ServiceSim, PerTenantSloMetricsArePopulated)
{
    auto tenants = smallTenants();
    tenants[0].slo.minHitRate = 0.01;
    tenants[0].slo.maxP99MissCycles = 256.0;
    const ServiceResult result =
        runService(tenants, "PDP-3", smallConfig(), 7);
    ASSERT_EQ(result.tenants.size(), 4u);
    for (const TenantOutcome &t : result.tenants) {
        EXPECT_GT(t.requests, 0u) << t.name;
        EXPECT_GE(t.hitRate, 0.0);
        EXPECT_LE(t.hitRate, 1.0);
        EXPECT_GE(t.meanQuota, 0.0);
        EXPECT_LE(t.meanQuota, 1.0);
        EXPECT_GE(t.occupancyDrift, 0.0);
        EXPECT_LE(t.occupancyDrift, 1.0);
    }
    // The swap pair shares a slot: beta leaves, delta takes its place.
    EXPECT_EQ(result.tenants[1].leftAt, 20'000u);
    EXPECT_EQ(result.tenants[3].joinedAt, 20'000u);
    EXPECT_EQ(result.tenants[1].slot, result.tenants[3].slot);
    // p99 is a log2 bucket upper edge: one less than a power of two
    // (or zero when the tenant never missed).
    for (const TenantOutcome &t : result.tenants) {
        const uint64_t p99 = static_cast<uint64_t>(t.p99MissCycles);
        EXPECT_EQ((p99 + 1) & p99, 0u) << t.name << " p99=" << p99;
    }
}

TEST(ServiceSim, BaselinePoliciesRunUnmanaged)
{
    const ServiceResult result =
        runService(smallTenants(), "LRU", smallConfig(), 7);
    EXPECT_FALSE(result.tenantAware);
    EXPECT_EQ(result.joins, 4u);
    EXPECT_EQ(result.leaves, 1u);
    // Quotas fall back to an equal share of the live tenants.
    for (const TenantOutcome &t : result.tenants)
        EXPECT_NEAR(t.meanQuota, 1.0 / 3.0, 0.05) << t.name;
}
