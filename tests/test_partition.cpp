/**
 * @file
 * Tests for the multi-core partitioning module: TA-DRRIP's per-thread
 * dueling, the UMON utility monitor and lookahead algorithm, UCP
 * enforcement, PIPP priority mechanics, and PD-based partitioning.
 */

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "check/check.h"
#include "check/invariant_auditor.h"
#include "partition/pdp_partition.h"
#include "partition/pipp.h"
#include "partition/ta_drrip.h"
#include "partition/ucp.h"
#include "partition/umon.h"
#include "sim/multi_core_sim.h"

using namespace pdp;

namespace
{

CacheConfig
tinyConfig(uint32_t sets, uint32_t ways, bool bypass = false)
{
    CacheConfig cfg;
    cfg.sizeBytes = static_cast<uint64_t>(sets) * ways * 64;
    cfg.ways = ways;
    cfg.allowBypass = bypass;
    return cfg;
}

AccessContext
at(uint64_t line, uint8_t thread)
{
    AccessContext ctx;
    ctx.lineAddr = line;
    ctx.threadId = thread;
    return ctx;
}

} // namespace

TEST(Umon, UtilityCurveReflectsWorkingSet)
{
    // Thread 0 cycles 4 lines in the sampled set: with >= 4 ways it hits,
    // with fewer it thrashes (LRU), so the marginal utility concentrates
    // at way 4.
    Umon umon(2, 64, 8, /*sampled_sets=*/1);
    for (int lap = 0; lap < 50; ++lap)
        for (uint64_t line = 0; line < 4; ++line)
            umon.observe(0, line, 0);
    EXPECT_EQ(umon.hitsWithWays(0, 3), 0u);
    EXPECT_GT(umon.hitsWithWays(0, 4), 100u);
}

TEST(Umon, LookaheadGivesWaysToTheUtileThread)
{
    Umon umon(2, 64, 8, 1);
    // Thread 0: strong reuse at 6 ways; thread 1: streaming (no reuse).
    for (int lap = 0; lap < 50; ++lap)
        for (uint64_t line = 0; line < 6; ++line)
            umon.observe(0, line, 0);
    for (uint64_t i = 0; i < 300; ++i)
        umon.observe(0, 1000 + i, 1);
    const auto alloc = umon.lookaheadPartition();
    ASSERT_EQ(alloc.size(), 2u);
    EXPECT_EQ(alloc[0] + alloc[1], 8u);
    EXPECT_GE(alloc[0], 6u);
    EXPECT_GE(alloc[1], 1u); // everyone keeps at least one way
}

TEST(Umon, DegenerateAtThreadsEqualWays)
{
    // 16 threads, 16 ways: the lookahead cannot do better than 1 each —
    // the structural reason UCP "does not scale" in Fig. 12.
    Umon umon(16, 64, 16, 1);
    const auto alloc = umon.lookaheadPartition();
    for (uint32_t ways : alloc)
        EXPECT_EQ(ways, 1u);
}

TEST(Ucp, EnforcesAllocationAgainstOverusers)
{
    auto policy = std::make_unique<UcpPolicy>(2, /*interval=*/100);
    UcpPolicy *ucp = policy.get();
    Cache cache(tinyConfig(64, 8), std::move(policy));
    // Thread 0 shows reuse at 6 lines; thread 1 streams.
    for (int lap = 0; lap < 300; ++lap) {
        for (uint64_t line = 0; line < 6; ++line)
            cache.access(at(line * 64, 0));
        for (int s = 0; s < 6; ++s)
            cache.access(at((100000 + lap * 8 + s) * 64, 1));
    }
    EXPECT_GE(ucp->allocation()[0], 5u);
    // Thread 0's reused lines survive thread 1's stream.
    EXPECT_GT(cache.stats().threadHits[0], 1000u);
}

TEST(Pipp, VictimIsLowestPriority)
{
    auto policy = std::make_unique<PippPolicy>(2);
    Cache cache(tinyConfig(4, 4), std::move(policy));
    // Fill the set, then cause a miss: someone must be evicted (no
    // bypass in PIPP), and the cache stays consistent.
    for (uint64_t i = 0; i < 16; ++i)
        cache.access(at(i * 4, i % 2));
    EXPECT_EQ(cache.stats().misses, 16u);
    uint32_t valid = 0;
    for (uint32_t w = 0; w < 4; ++w)
        valid += cache.isValid(0, w);
    EXPECT_EQ(valid, 4u);
}

TEST(Pipp, PromotionIsGradual)
{
    PippPolicy::Params params;
    params.promotionProb = 1.0; // deterministic for the test
    auto policy = std::make_unique<PippPolicy>(2, params);
    Cache cache(tinyConfig(1, 4), std::move(policy));
    cache.access(at(0, 0));
    cache.access(at(4, 0));
    cache.access(at(8, 0));
    cache.access(at(12, 0));
    // Hit line 0 repeatedly: it climbs one position per hit, so after
    // several hits it is no longer the victim.
    for (int i = 0; i < 4; ++i)
        cache.access(at(0, 0));
    const AccessOutcome out = cache.access(at(16, 0));
    EXPECT_TRUE(out.evictedValid);
    EXPECT_NE(out.evictedAddr, 0u);
}

TEST(TaDrrip, PerThreadDuelingIndependent)
{
    auto policy = std::make_unique<TaDrripPolicy>(4);
    Cache cache(tinyConfig(2048, 16), std::move(policy));
    // Just exercise the paths: four threads, mixed hits/misses.
    for (uint64_t i = 0; i < 20000; ++i)
        cache.access(at((i % 3000) * 64, static_cast<uint8_t>(i % 4)));
    EXPECT_GT(cache.stats().hits, 0u);
}

TEST(PdpPartition, PerThreadPdsDiverge)
{
    auto policy = std::make_unique<PdpPartitionPolicy>(2, 8);
    PdpPartitionPolicy *pdp = policy.get();
    CacheConfig cfg = tinyConfig(2048, 16, /*bypass=*/true);
    Cache cache(cfg, std::move(policy));
    // Thread 0: loop with per-set RD ~40 (80 lines/set cycling over
    // 2048 sets interleaved 1:1 with thread 1's stream).
    // Thread 1: pure streaming.
    const uint64_t loop_lines = 20 * 2048;
    uint64_t scan = 1ull << 40;
    for (uint64_t i = 0; i < 1'500'000; ++i) {
        cache.access(at(i % loop_lines, 0));
        cache.access(at(scan++, 1));
    }
    ASSERT_FALSE(pdp->pdHistory().empty());
    const auto &pds = pdp->threadPds();
    // Thread 0 gets a protecting PD near its reuse distance (40, in
    // total accesses); thread 1 (no reuse) is shrunk to the minimum.
    EXPECT_GE(pds[0], 40u);
    EXPECT_LE(pds[1], 32u);
}

TEST(PdpPartition, ProtectedThreadHitsStreamDoesNot)
{
    auto policy = std::make_unique<PdpPartitionPolicy>(2, 8);
    CacheConfig cfg = tinyConfig(2048, 16, true);
    Cache cache(cfg, std::move(policy));
    const uint64_t loop_lines = 20 * 2048;
    uint64_t scan = 1ull << 40;
    for (uint64_t i = 0; i < 1'500'000; ++i) {
        cache.access(at(i % loop_lines, 0));
        cache.access(at(scan++, 1));
    }
    EXPECT_GT(cache.stats().threadHits[0], 100000u);
    EXPECT_EQ(cache.stats().threadHits[1], 0u);
}

TEST(SharedPolicyFactory, BuildsAll)
{
    for (const char *spec :
         {"LRU", "DIP", "TA-DRRIP", "UCP", "PIPP", "PDP-2", "PDP-3"}) {
        auto policy = makeSharedPolicy(spec, 4);
        ASSERT_NE(policy, nullptr);
    }
    EXPECT_THROW(makeSharedPolicy("nope", 4), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Dynamic tenants (TenantAwarePartition, service mode)
// ---------------------------------------------------------------------------

TEST(Umon, InactiveThreadsGetNoWays)
{
    Umon umon(4, 64, 8, 1);
    umon.setActive(2, false);
    umon.setActive(3, false);
    // Thread 0 shows reuse at 6 ways; thread 1 streams.
    for (int lap = 0; lap < 50; ++lap)
        for (uint64_t line = 0; line < 6; ++line)
            umon.observe(0, line, 0);
    for (uint64_t i = 0; i < 300; ++i)
        umon.observe(0, 1000 + i, 1);
    const auto alloc = umon.lookaheadPartition();
    ASSERT_EQ(alloc.size(), 4u);
    EXPECT_EQ(alloc[2], 0u);
    EXPECT_EQ(alloc[3], 0u);
    // The whole cache splits over the two active threads only.
    EXPECT_EQ(alloc[0] + alloc[1], 8u);
    EXPECT_GE(alloc[0], 6u);
    EXPECT_GE(alloc[1], 1u);
}

TEST(Umon, ResetThreadClearsTheCurveForTheNextOccupant)
{
    Umon umon(2, 64, 8, 1);
    for (int lap = 0; lap < 50; ++lap)
        for (uint64_t line = 0; line < 4; ++line)
            umon.observe(0, line, 0);
    ASSERT_GT(umon.hitsWithWays(0, 8), 0u);
    umon.resetThread(0);
    // The recycled slot starts with a blank utility curve: the previous
    // occupant's reuse must not shape the next tenant's allocation.
    for (uint32_t w = 1; w <= 8; ++w)
        EXPECT_EQ(umon.hitsWithWays(0, w), 0u);
}

namespace
{

/** One scripted UCP churn sequence; returns the allocation after each
 *  lifecycle step (for determinism comparison across runs). */
std::vector<std::vector<uint32_t>>
ucpChurnSequence()
{
    auto policy = std::make_unique<UcpPolicy>(4, /*interval=*/1'000'000);
    UcpPolicy *ucp = policy.get();
    Cache cache(tinyConfig(64, 8), std::move(policy));
    ucp->beginTenantMode();
    EXPECT_EQ(ucp->activeTenants(), 0u);

    std::vector<std::vector<uint32_t>> history;
    ucp->tenantJoin(0);
    ucp->tenantJoin(1);
    history.push_back(ucp->allocation());

    // Thread 0 reuses 6 lines, thread 1 streams.
    for (int lap = 0; lap < 300; ++lap) {
        for (uint64_t line = 0; line < 6; ++line)
            cache.access(at(line * 64, 0));
        for (int s = 0; s < 6; ++s)
            cache.access(at((100000 + lap * 8 + s) * 64, 1));
    }

    ucp->tenantJoin(2);
    history.push_back(ucp->allocation());
    ucp->tenantLeave(1);
    history.push_back(ucp->allocation());
    // A vacated slot can be joined again.
    ucp->tenantJoin(1);
    history.push_back(ucp->allocation());

    for (int lap = 0; lap < 50; ++lap)
        for (uint64_t line = 0; line < 4; ++line)
            cache.access(at((5000 + line) * 64, 2));
    history.push_back(ucp->allocation());

    // The cache itself stays invariant-clean through the churn.
    InvariantAuditor auditor;
    auditor.watchCache(cache);
    EXPECT_NO_THROW(auditor.auditNow());
    return history;
}

} // namespace

TEST(Ucp, TenantChurnReallocatesDeterministically)
{
    const auto first = ucpChurnSequence();
    const auto second = ucpChurnSequence();
    EXPECT_EQ(first, second);

    // Inactive slots hold zero ways at every step; active slots cover
    // the whole cache.
    for (const auto &alloc : first) {
        uint32_t total = 0;
        for (uint32_t ways : alloc)
            total += ways;
        EXPECT_EQ(total, 8u);
    }
}

TEST(Ucp, TenantQuotasTrackActiveSlots)
{
    auto policy = std::make_unique<UcpPolicy>(4, 1'000'000);
    UcpPolicy *ucp = policy.get();
    Cache cache(tinyConfig(64, 8), std::move(policy));
    ucp->beginTenantMode();
    ucp->tenantJoin(0);
    ucp->tenantJoin(1);
    ucp->tenantJoin(2);
    ucp->tenantLeave(1);
    EXPECT_EQ(ucp->activeTenants(), 2u);
    EXPECT_TRUE(ucp->tenantActive(0));
    EXPECT_FALSE(ucp->tenantActive(1));
    const std::vector<double> quotas = ucp->tenantQuotas();
    ASSERT_EQ(quotas.size(), 4u);
    EXPECT_EQ(quotas[1], 0.0);
    EXPECT_EQ(quotas[3], 0.0);
    double sum = 0.0;
    for (double q : quotas)
        sum += q;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Ucp, TenantJoinOnActiveSlotThrows)
{
    auto policy = std::make_unique<UcpPolicy>(2, 1'000'000);
    UcpPolicy *ucp = policy.get();
    Cache cache(tinyConfig(64, 8), std::move(policy));
    ucp->beginTenantMode();
    ucp->tenantJoin(1);
    EXPECT_THROW(ucp->tenantJoin(1), CheckFailure);
    EXPECT_THROW(ucp->tenantJoin(2), CheckFailure); // no such slot
    ucp->tenantJoin(0);
    EXPECT_EQ(ucp->activeTenants(), 2u);
}

TEST(PdpPartition, TenantChurnKeepsInvariantsAndRecyclesSlots)
{
    auto policy = std::make_unique<PdpPartitionPolicy>(4, 3);
    PdpPartitionPolicy *pdp = policy.get();
    Cache cache(tinyConfig(256, 16, /*bypass=*/true), std::move(policy));
    pdp->beginTenantMode();

    pdp->tenantJoin(0);
    pdp->tenantJoin(1);
    uint64_t scan = 1ull << 40;
    for (uint64_t i = 0; i < 50'000; ++i) {
        cache.access(at(i % 2048, 0));
        cache.access(at(scan++, 1));
    }
    pdp->tenantLeave(0);
    // A vacated slot drops to minimal protection (counterStep) so its
    // residual lines age out — auditGlobal's part.inactive_pd invariant.
    EXPECT_FALSE(pdp->tenantActive(0));
    pdp->tenantJoin(0); // the vacated slot is recycled
    EXPECT_THROW(pdp->tenantJoin(1), CheckFailure); // still active
    pdp->tenantJoin(2);
    EXPECT_EQ(pdp->activeTenants(), 3u);
    for (uint64_t i = 0; i < 20'000; ++i)
        cache.access(at(i % 1024, 2));

    InvariantAuditor auditor;
    auditor.watchCache(cache);
    EXPECT_NO_THROW(auditor.auditNow());

    const std::vector<double> quotas = pdp->tenantQuotas();
    ASSERT_EQ(quotas.size(), 4u);
    EXPECT_EQ(quotas[3], 0.0);
    double sum = 0.0;
    for (double q : quotas)
        sum += q;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PdpPartition, InactiveSlotHoldsMinimalPdAfterLeave)
{
    auto policy = std::make_unique<PdpPartitionPolicy>(2, 3);
    PdpPartitionPolicy *pdp = policy.get();
    Cache cache(tinyConfig(256, 16, true), std::move(policy));
    pdp->beginTenantMode();
    pdp->tenantJoin(0);
    pdp->tenantJoin(1);
    for (uint64_t i = 0; i < 30'000; ++i)
        cache.access(at(i % 512, static_cast<uint8_t>(i & 1)));
    pdp->tenantLeave(1);
    // counterStep is the minimum PD the model admits (S_c = 16 here via
    // makePdpPartition defaults is 16; the direct ctor uses Params'
    // default step).
    InvariantReporter reporter;
    pdp->auditGlobal(reporter);
    EXPECT_TRUE(reporter.clean()) << reporter.report();
    EXPECT_LE(pdp->threadPds()[1], pdp->threadPds()[0]);
}
