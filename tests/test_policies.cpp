/**
 * @file
 * Unit tests for the baseline replacement policies: LRU semantics, DIP
 * insertion behaviour, the RRIP family, set dueling, EELRU and SDP
 * mechanics, and the policy factory.
 */

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "check/check.h"
#include "core/pdp_policy.h"
#include "policies/basic.h"
#include "policies/dip.h"
#include "policies/dueling.h"
#include "policies/eelru.h"
#include "policies/rrip.h"
#include "policies/sdp.h"
#include "sim/policy_factory.h"

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
at(uint64_t line, uint64_t pc = 0x400000)
{
    AccessContext ctx;
    ctx.lineAddr = line;
    ctx.pc = pc;
    return ctx;
}

} // namespace

TEST(Lru, CyclicThrashNeverHits)
{
    Cache cache(tinyConfig(4, 2), std::make_unique<LruPolicy>());
    // 3 lines cycling through a 2-way set: classic LRU worst case.
    for (int lap = 0; lap < 5; ++lap)
        for (uint64_t line : {0u, 4u, 8u})
            cache.access(at(line));
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(Lip, InsertsAtLruPosition)
{
    Cache cache(tinyConfig(4, 2), makeLip());
    cache.access(at(0));
    cache.access(at(4));
    cache.access(at(0)); // promote 0
    // LIP: the newest insert (8) lands at LRU and is the next victim.
    cache.access(at(8));
    const AccessOutcome out = cache.access(at(12));
    EXPECT_EQ(out.evictedAddr, 8u);
}

TEST(Bip, MostInsertsAtLru)
{
    Cache cache(tinyConfig(4, 4, false), makeBip(1.0 / 32));
    // Thrash with a long cyclic pattern: BIP must retain some stable
    // subset and produce hits where LRU gets none.
    Cache lru(tinyConfig(4, 4, false), std::make_unique<LruPolicy>());
    for (int lap = 0; lap < 400; ++lap)
        for (uint64_t line = 0; line < 8; ++line) {
            cache.access(at(line * 4));
            lru.access(at(line * 4));
        }
    EXPECT_EQ(lru.stats().hits, 0u);
    EXPECT_GT(cache.stats().hits, 100u);
}

TEST(SetDueling, LeaderAssignmentsDisjoint)
{
    SetDueling duel(2048, 32, 10);
    int a = 0, b = 0;
    for (uint32_t set = 0; set < 2048; ++set) {
        const int type = duel.leaderType(set);
        a += type == 0;
        b += type == 1;
    }
    EXPECT_EQ(a, 32);
    EXPECT_EQ(b, 32);
}

TEST(SetDueling, PselMovesTowardWinner)
{
    SetDueling duel(2048, 32, 10);
    // Hammer misses on A leaders: policy B should win the followers.
    for (uint32_t i = 0; i < 1000; ++i)
        for (uint32_t set = 0; set < 2048; ++set)
            if (duel.leaderType(set) == 0)
                duel.recordMiss(set);
    EXPECT_TRUE(duel.setUsesB(5)); // follower
}

TEST(Rrip, HitPromotionProtects)
{
    Cache cache(tinyConfig(4, 2), makeSrrip());
    cache.access(at(0));
    cache.access(at(0)); // RRPV -> 0
    cache.access(at(4));
    // Line 4 (inserted long, RRPV 2) must be evicted before line 0.
    const AccessOutcome out = cache.access(at(8));
    EXPECT_EQ(out.evictedAddr, 4u);
}

TEST(Rrip, BrripRarelyInsertsLong)
{
    Cache cache(tinyConfig(4, 4, false), makeBrrip(1.0 / 32));
    Cache lru(tinyConfig(4, 4, false), std::make_unique<LruPolicy>());
    for (int lap = 0; lap < 400; ++lap)
        for (uint64_t line = 0; line < 8; ++line) {
            cache.access(at(line * 4));
            lru.access(at(line * 4));
        }
    // BRRIP is thrash-resistant where LRU is not.
    EXPECT_EQ(lru.stats().hits, 0u);
    EXPECT_GT(cache.stats().hits, 100u);
}

TEST(Eelru, BehavesLikeLruOnSmallWorkingSets)
{
    Cache cache(tinyConfig(4, 4), std::make_unique<EelruPolicy>());
    for (int lap = 0; lap < 50; ++lap)
        for (uint64_t line = 0; line < 3; ++line)
            cache.access(at(line * 4));
    // Working set of 3 fits in 4 ways: everything after warmup hits.
    EXPECT_GT(cache.stats().hitRate(), 0.9);
}

TEST(Eelru, TracksShadowDepthBeyondAssociativity)
{
    EelruPolicy::Params params;
    params.epochAccesses = 64;
    Cache cache(tinyConfig(1, 4),
                std::make_unique<EelruPolicy>(params));
    // 6-line cycle over a 4-way set: LRU gets zero; EELRU's early
    // eviction can keep a useful fraction.
    for (int lap = 0; lap < 500; ++lap)
        for (uint64_t line = 0; line < 6; ++line)
            cache.access(at(line));
    EXPECT_GT(cache.stats().hits, 0u);
}

TEST(DeadBlockPredictor, LearnsDeadSignatures)
{
    DeadBlockPredictor predictor;
    for (int i = 0; i < 10; ++i)
        predictor.train(0xbeef, true);
    EXPECT_TRUE(predictor.predictDead(0xbeef));
    EXPECT_FALSE(predictor.predictDead(0x1234));
    for (int i = 0; i < 10; ++i)
        predictor.train(0xbeef, false);
    EXPECT_FALSE(predictor.predictDead(0xbeef));
}

TEST(Sdp, BypassesLearnedDeadPc)
{
    SdpPolicy::Params params;
    params.samplerSets = 1;
    Cache cache(tinyConfig(4, 2, /*bypass=*/true),
                std::make_unique<SdpPolicy>(params));
    // Stream never-reused lines from one PC through the sampled set 0.
    const uint64_t dead_pc = 0xdead00;
    for (uint64_t i = 0; i < 3000; ++i)
        cache.access(at(i * 4, dead_pc));
    EXPECT_GT(cache.stats().bypasses, 0u);
}

TEST(PolicyFactory, BuildsEveryStandardSpec)
{
    for (const char *spec :
         {"LRU", "LIP", "BIP", "DIP", "SRRIP", "BRRIP", "DRRIP", "EELRU",
          "SDP", "PDP-2", "PDP-3", "PDP-8", "PDP-8-NB", "PDP-1INS",
          "SPDP-B:72", "SPDP-NB:64"}) {
        auto policy = makePolicy(spec);
        ASSERT_NE(policy, nullptr) << spec;
        EXPECT_FALSE(policy->name().empty());
    }
    // An unknown spec throws an error naming it; FIFO, Random and
    // SHiP-lite are not policies of this simulator.
    for (const char *spec : {"NotAPolicy", "FIFO", "Random", "SHiP"}) {
        try {
            makePolicy(spec);
            ADD_FAILURE() << spec << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(spec), std::string::npos)
                << e.what();
        }
    }
}

TEST(PolicyFactory, RejectsMalformedSpecs)
{
    // Trailing junk, a sign, an empty or non-numeric argument.
    EXPECT_THROW(makePolicy("SPDP-B:64x"), std::invalid_argument);
    EXPECT_THROW(makePolicy("SPDP-B:-1"), std::invalid_argument);
    EXPECT_THROW(makePolicy("SPDP-B:"), std::invalid_argument);
    EXPECT_THROW(makePolicy("LRU:abc"), std::invalid_argument);
    // A static PD outside [1, d_max = 256]: PD 0 never protects a line,
    // and RPDs saturate long before PD 100000.
    EXPECT_THROW(makePolicy("SPDP-B:0"), std::invalid_argument);
    EXPECT_THROW(makePolicy("SPDP-NB:257"), std::invalid_argument);
    EXPECT_THROW(makePolicy("SPDP-NB:100000"), std::invalid_argument);
    // An argument on a policy that takes none.
    EXPECT_THROW(makePolicy("DRRIP:7"), std::invalid_argument);
    EXPECT_THROW(makePolicy("PDP-8:3"), std::invalid_argument);
    // The boundaries of the PD range are accepted.
    EXPECT_EQ(static_cast<PdpPolicy &>(*makePolicy("SPDP-B:1")).pd(), 1u);
    EXPECT_EQ(static_cast<PdpPolicy &>(*makePolicy("SPDP-NB:256")).pd(),
              256u);

    // The error names the spec.
    try {
        makePolicy("SPDP-B:64x");
        FAIL() << "SPDP-B:64x accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("SPDP-B:64x"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PolicyFactory, StaticPdpRejectsPdOutsideRange)
{
    for (uint32_t pd : {0u, 257u}) {
        PdpParams params;
        params.dynamic = false;
        params.staticPd = pd;
        EXPECT_THROW(PdpPolicy{params}, CheckFailure) << pd;
    }
}
