/**
 * @file
 * Tests for the checking layer (src/check/): PDP_CHECK's throw, the
 * InvariantAuditor's cadence machinery and its throw on a dirty pass,
 * detection of deliberately injected state corruption in every audited
 * subsystem, clean full-cadence sweeps of the paper configurations, and
 * a run that fails when its audit finds a violation.
 */

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "cache/occupancy_tracker.h"
#include "check/check.h"
#include "check/invariant_auditor.h"
#include "core/pdp_policy.h"
#include "partition/pdp_partition.h"
#include "partition/pipp.h"
#include "partition/ucp.h"
#include "policies/basic.h"
#include "policies/dip.h"
#include "policies/rrip.h"
#include "policies/sdp.h"
#include "sim/multi_core_sim.h"
#include "sim/policy_factory.h"
#include "sim/single_core_sim.h"
#include "trace/spec_suite.h"

using namespace pdp;

namespace
{

CacheConfig
smallConfig(uint32_t sets = 64, uint32_t ways = 4, bool bypass = true)
{
    CacheConfig cfg;
    cfg.sizeBytes = static_cast<uint64_t>(sets) * ways * 64;
    cfg.ways = ways;
    cfg.allowBypass = bypass;
    return cfg;
}

/** Drive `count` demand accesses with some reuse through the cache. */
void
exercise(Cache &cache, uint64_t count, uint64_t working_set = 256,
         uint8_t thread = 0)
{
    for (uint64_t i = 0; i < count; ++i) {
        AccessContext ctx;
        ctx.lineAddr = (i * 17) % working_set;
        ctx.pc = 0x4000 + (i % 7) * 4;
        ctx.threadId = thread;
        cache.access(ctx);
    }
}

/** PDP parameters that fit the small test cache. */
PdpParams
smallPdpParams(unsigned nc_bits = 2)
{
    PdpParams params;
    params.ncBits = nc_bits;
    params.sampler.sampledSets = 16;
    return params;
}

/** The message of the CheckFailure `body` throws ("" and a test
 *  failure when it throws none). */
template <typename Body>
std::string
checkFailureMessage(Body body)
{
    try {
        body();
    } catch (const CheckFailure &failure) {
        return failure.what();
    }
    ADD_FAILURE() << "no CheckFailure thrown";
    return {};
}

} // namespace

// ---------------------------------------------------------------------------
// PDP_CHECK semantics
// ---------------------------------------------------------------------------

TEST(CheckMacro, FailFastThrowsWithSiteAndMessage)
{
    try {
        const int value = 41;
        PDP_CHECK(value == 42, "value is ", value);
        FAIL() << "PDP_CHECK did not throw";
    } catch (const CheckFailure &failure) {
        const std::string what = failure.what();
        EXPECT_NE(what.find("test_check.cpp"), std::string::npos) << what;
        EXPECT_NE(what.find("value == 42"), std::string::npos) << what;
        EXPECT_NE(what.find("value is 41"), std::string::npos) << what;
    }
}

TEST(CheckMacro, PassingCheckHasNoEffect)
{
    EXPECT_NO_THROW(PDP_CHECK(1 + 1 == 2, "arithmetic broke"));
}

// ---------------------------------------------------------------------------
// Auditor mechanics
// ---------------------------------------------------------------------------

TEST(InvariantAuditor, CleanCacheProducesNoViolations)
{
    Cache cache(smallConfig(), std::make_unique<LruPolicy>());
    exercise(cache, 2000);
    InvariantReporter reporter;
    cache.auditInvariants(reporter);
    EXPECT_TRUE(reporter.clean()) << reporter.report();
}

TEST(InvariantAuditor, CadenceTicksOnEveryAccess)
{
    Cache cache(smallConfig(), std::make_unique<LruPolicy>());
    InvariantAuditor auditor(/*cadence=*/1);
    auditor.watchCache(cache);
    cache.setAuditor(&auditor);
    EXPECT_NO_THROW(exercise(cache, 500));
    cache.setAuditor(nullptr);
    EXPECT_EQ(auditor.accessesSeen(), 500u);
    EXPECT_EQ(auditor.auditsRun(), 500u);
}

TEST(InvariantAuditor, CoarserCadenceAuditsLess)
{
    Cache cache(smallConfig(), std::make_unique<LruPolicy>());
    InvariantAuditor auditor(/*cadence=*/64);
    auditor.watchCache(cache);
    cache.setAuditor(&auditor);
    exercise(cache, 640);
    cache.setAuditor(nullptr);
    EXPECT_EQ(auditor.auditsRun(), 10u);
}

TEST(InvariantAuditor, FailFastOptionThrowsOnCorruption)
{
    auto policy = std::make_unique<RripPolicy>(RripPolicy::Mode::Srrip);
    RripPolicy *rrip = policy.get();
    Cache cache(smallConfig(), std::move(policy));
    exercise(cache, 200);
    rrip->debugSetRrpv(0, 0, 99);

    InvariantAuditor auditor;
    auditor.watchCache(cache);
    const std::string what =
        checkFailureMessage([&] { auditor.auditNow(); });
    EXPECT_NE(what.find("rrip.rrpv_range"), std::string::npos) << what;
}

// ---------------------------------------------------------------------------
// Injected corruption is detected, one subsystem at a time
// ---------------------------------------------------------------------------

TEST(InjectedViolation, PdpOversizedRpd)
{
    auto policy = std::make_unique<PdpPolicy>(smallPdpParams(2));
    PdpPolicy *pdp = policy.get();
    Cache cache(smallConfig(), std::move(policy));
    exercise(cache, 500);

    InvariantReporter clean;
    cache.auditInvariants(clean);
    ASSERT_TRUE(clean.clean()) << clean.report();

    pdp->debugSetRpd(3, 1, 200);  // n_c = 2 caps the RPD at 3
    InvariantReporter reporter;
    cache.auditInvariants(reporter);
    EXPECT_TRUE(reporter.has("pdp.rpd_range")) << reporter.report();
}

TEST(InjectedViolation, RddConservationBroken)
{
    auto policy = std::make_unique<PdpPolicy>(smallPdpParams(8));
    PdpPolicy *pdp = policy.get();
    Cache cache(smallConfig(), std::move(policy));
    exercise(cache, 500);

    // Hits without matching sampled accesses break conservation even
    // after allowing the sampler-FIFO carry-over slack.
    pdp->debugCounterArray().addBucket(0, 60'000, 0);
    InvariantReporter reporter;
    cache.auditGlobalInvariants(reporter);
    EXPECT_TRUE(reporter.has("rdd.conservation")) << reporter.report();
}

TEST(InjectedViolation, RripRrpvOutOfRange)
{
    auto policy = std::make_unique<RripPolicy>(RripPolicy::Mode::Srrip);
    RripPolicy *rrip = policy.get();
    Cache cache(smallConfig(), std::move(policy));
    exercise(cache, 300);

    rrip->debugSetRrpv(5, 2, 17);  // 2-bit RRPV caps at 3
    InvariantReporter reporter;
    cache.auditInvariants(reporter);
    EXPECT_TRUE(reporter.has("rrip.rrpv_range")) << reporter.report();
}

TEST(InjectedViolation, DipPselOutOfRange)
{
    auto policy = makeDip();
    InsertionLruPolicy *dip = policy.get();
    Cache cache(smallConfig(), std::move(policy));
    exercise(cache, 300);

    dip->debugForcePsel(4096);  // PSEL is 10 bits
    InvariantReporter reporter;
    cache.auditGlobalInvariants(reporter);
    EXPECT_TRUE(reporter.has("dueling.psel_range")) << reporter.report();
}

TEST(InjectedViolation, SdpDeadBitOutOfRange)
{
    auto policy = std::make_unique<SdpPolicy>();
    SdpPolicy *sdp = policy.get();
    Cache cache(smallConfig(), std::move(policy));
    exercise(cache, 300);

    sdp->debugSetDeadBit(3, 1, 2);  // a dead bit is 0 or 1
    InvariantReporter reporter;
    cache.auditInvariants(reporter);
    EXPECT_TRUE(reporter.has("sdp.dead_bit")) << reporter.report();
}

TEST(InjectedViolation, CacheStatsIdentityBroken)
{
    Cache cache(smallConfig(), std::make_unique<LruPolicy>());
    exercise(cache, 300);

    cache.debugStats().hits += 3;  // hits + misses no longer == accesses
    InvariantReporter reporter;
    cache.auditGlobalInvariants(reporter);
    EXPECT_TRUE(reporter.has("cache.stats.identity")) << reporter.report();
}

TEST(InjectedViolation, PartitionPdOutOfRange)
{
    auto policy = makePdpPartition(2, 3);
    PdpPartitionPolicy *part = policy.get();
    Cache cache(CacheConfig::paperLlc(2), std::move(policy));
    exercise(cache, 400, 4096, 0);
    exercise(cache, 400, 4096, 1);

    part->debugSetThreadPd(1, 0);  // PDs live in [1, d_max]
    InvariantReporter reporter;
    cache.auditGlobalInvariants(reporter);
    EXPECT_TRUE(reporter.has("part.pd_range")) << reporter.report();
}

TEST(InjectedViolation, PippOrderNotAPermutation)
{
    auto policy = std::make_unique<PippPolicy>(2);
    PippPolicy *pipp = policy.get();
    Cache cache(smallConfig(), std::move(policy));
    exercise(cache, 300, 256, 0);
    exercise(cache, 300, 256, 1);

    pipp->debugSetOrder(2, 0, 1);  // way 1 now appears twice in set 2
    InvariantReporter reporter;
    cache.auditInvariants(reporter);
    EXPECT_TRUE(reporter.has("pipp.order_perm")) << reporter.report();
}

TEST(InjectedViolation, UcpAllocationOutOfRange)
{
    auto policy = std::make_unique<UcpPolicy>(2);
    UcpPolicy *ucp = policy.get();
    Cache cache(smallConfig(), std::move(policy));
    exercise(cache, 300, 256, 0);
    exercise(cache, 300, 256, 1);

    ucp->debugSetAllocation(0, 99);  // a 4-way set cannot grant 99 ways
    InvariantReporter reporter;
    cache.auditGlobalInvariants(reporter);
    EXPECT_TRUE(reporter.has("ucp.alloc_range")) << reporter.report();
}

TEST(InjectedViolation, OccupancyLastEventAheadOfCounter)
{
    Cache cache(smallConfig(), std::make_unique<LruPolicy>());
    OccupancyTracker tracker(cache);
    cache.setObserver(&tracker);
    exercise(cache, 500);
    cache.setObserver(nullptr);

    InvariantAuditor auditor;
    auditor.watchCache(cache);
    auditor.watchOccupancy(cache, tracker, /*cross_check_stats=*/true);
    ASSERT_NO_THROW(auditor.auditNow());

    tracker.debugSetLastEvent(0, 0, 1u << 30);
    const std::string what =
        checkFailureMessage([&] { auditor.auditNow(); });
    EXPECT_NE(what.find("occ.last_event"), std::string::npos) << what;
}

// ---------------------------------------------------------------------------
// Clean sweeps of the paper configurations under the auditor
// ---------------------------------------------------------------------------

/** runSingleCore(benchmark, policy, config), noting whether the LLC's
 *  policy ran the cache's fused (devirtualized) access path — the
 *  auditor attaches to the same path selection, so audited runs check
 *  the fused code. */
SimResult
runAudited(const std::string &benchmark, const std::string &policy,
           const SimConfig &config, bool &fused)
{
    auto gen = SpecSuite::make(benchmark);
    Hierarchy hierarchy(config.hierarchy, makePolicy(policy));
    fused = hierarchy.llc().fusedPath();
    return runSingleCore(*gen, hierarchy, config);
}

TEST(AuditedSweep, Fig10ConfigPdpMaxCadence)
{
    // The Fig. 10 single-core setup (paper L2 + 2 MB 16-way LLC) under
    // dynamic PDP-3, audited on every LLC access.
    SimConfig cfg = SimConfig{}.scaled(0.02);
    cfg.auditEvery = 1;  // a broken invariant throws out of the run
    bool fused = false;
    SimResult result;
    ASSERT_NO_THROW(
        result = runAudited("436.cactusADM", "PDP-3", cfg, fused));
    EXPECT_TRUE(fused);
    EXPECT_GT(result.auditsRun, 0u);
    EXPECT_GT(result.llcAccesses, 0u);
}

TEST(AuditedSweep, Fig10PolicyPanelMaxCadence)
{
    // Every Fig. 10 policy plus LRU, shorter runs, still audited on
    // every access; LRU, DRRIP and the dynamic PDPs run fused.
    SimConfig cfg = SimConfig{}.scaled(0.004);
    cfg.auditEvery = 1;
    std::vector<std::string> policies = fig10PolicyNames();
    policies.push_back("LRU");
    for (const std::string &policy : policies) {
        bool fused = false;
        SimResult result;
        EXPECT_NO_THROW(result = runAudited("429.mcf", policy, cfg, fused))
            << policy;
        EXPECT_EQ(fused, policy == "LRU" || policy == "DRRIP" ||
                             policy.rfind("PDP-", 0) == 0)
            << policy;
        EXPECT_GT(result.auditsRun, 0u) << policy;
    }
}

TEST(AuditedSweep, MultiCoreSharedPoliciesAudited)
{
    WorkloadSpec workload;
    workload.benchmarks = {"403.gcc", "429.mcf"};
    MultiCoreConfig cfg;
    cfg.cores = 2;
    cfg.accessesPerThread = 12'000;
    cfg.warmupPerThread = 4'000;
    cfg.auditEvery = 16;
    for (const std::string &policy :
         {std::string("TA-DRRIP"), std::string("UCP"), std::string("PIPP"),
          std::string("PDP-2")}) {
        MultiCoreResult result;
        EXPECT_NO_THROW(result = runMultiCore(workload, policy, cfg))
            << policy;
        EXPECT_GT(result.auditsRun, 0u) << policy;
    }
}

namespace
{

/** LRU whose global audit also reports one planted violation, so every
 *  audit pass over it is dirty. */
class PlantedViolationLru : public LruPolicy
{
  public:
    void
    auditGlobal(InvariantReporter &reporter) const override
    {
        LruPolicy::auditGlobal(reporter);
        reporter.fail("test.planted", "planted by the test policy");
    }
};

} // namespace

TEST(AuditedSweep, DirtyAuditFailsTheRun)
{
    // An audited run whose audit finds a violation must not come back
    // as a result: the first dirty pass throws out of runSingleCore.
    SimConfig cfg = SimConfig{}.scaled(0.001);
    cfg.auditEvery = 1;
    auto gen = SpecSuite::make("429.mcf");
    Hierarchy hierarchy(cfg.hierarchy,
                        std::make_unique<PlantedViolationLru>());
    const std::string what =
        checkFailureMessage([&] { runSingleCore(*gen, hierarchy, cfg); });
    EXPECT_NE(what.find("test.planted"), std::string::npos) << what;
}
