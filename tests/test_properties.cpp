/**
 * @file
 * Parameterized property tests (TEST_P sweeps) over policies, protecting
 * distances and sampler configurations:
 *
 *  - cache-state invariants hold for every policy under random traffic;
 *  - the PDP protection guarantee holds for a sweep of PD and n_c;
 *  - the RD sampler is exact for every (FIFO size, insertion rate);
 *  - the E(d_p) model is well-formed for random RDDs;
 *  - the pdproc microprogram matches its reference across geometries.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "cache/cache.h"
#include "core/hit_rate_model.h"
#include "core/pdp_policy.h"
#include "core/rd_sampler.h"
#include "hw/pdproc.h"
#include "sim/policy_factory.h"
#include "util/rng.h"

using namespace pdp;

namespace
{

CacheConfig
smallConfig(bool bypass)
{
    CacheConfig cfg;
    cfg.sizeBytes = 64 * 8 * 64; // 64 sets, 8 ways
    cfg.ways = 8;
    cfg.allowBypass = bypass;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Invariants under random traffic, for every policy.
// ---------------------------------------------------------------------

class PolicyInvariantTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PolicyInvariantTest, RandomTrafficKeepsStateConsistent)
{
    auto policy = makePolicy(GetParam());
    const bool bypass = policy->usesBypass();
    Cache cache(smallConfig(bypass), std::move(policy));
    Rng rng(0x1000 + std::hash<std::string>{}(GetParam()));

    uint64_t hits = 0, misses = 0, bypasses = 0;
    for (int i = 0; i < 60000; ++i) {
        AccessContext ctx;
        ctx.lineAddr = rng.below(2000);
        ctx.pc = 0x400000 + 4 * rng.below(16);
        ctx.threadId = static_cast<uint8_t>(rng.below(4));
        ctx.isWrite = rng.chance(0.3);
        const AccessOutcome out = cache.access(ctx);
        hits += out.hit;
        misses += !out.hit;
        bypasses += out.bypassed;
        // A hit must leave the line resident; a non-bypassed miss
        // installs it; a bypassed miss must not.
        if (out.bypassed)
            EXPECT_FALSE(cache.contains(ctx.lineAddr));
        else
            EXPECT_TRUE(cache.contains(ctx.lineAddr));
        // An eviction never reports the just-accessed line.
        if (out.evictedValid) {
            EXPECT_NE(out.evictedAddr, ctx.lineAddr);
        }
    }
    EXPECT_EQ(cache.stats().hits, hits);
    EXPECT_EQ(cache.stats().misses, misses);
    EXPECT_EQ(cache.stats().bypasses, bypasses);
    EXPECT_EQ(cache.stats().accesses, hits + misses);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyInvariantTest,
    ::testing::Values("LRU", "LIP", "BIP", "DIP", "SRRIP", "BRRIP",
                      "DRRIP", "EELRU", "SDP", "PDP-2", "PDP-3", "PDP-8",
                      "PDP-8-NB", "PDP-1INS"),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

// ---------------------------------------------------------------------
// The protection guarantee: a line protected with PD p survives at
// least p accesses to its set, for every (PD, n_c) combination.
// ---------------------------------------------------------------------

class ProtectionSweepTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, unsigned>>
{
};

TEST_P(ProtectionSweepTest, ProtectedLineSurvivesPdAccesses)
{
    const uint32_t pd = std::get<0>(GetParam());
    const unsigned nc = std::get<1>(GetParam());

    // The n_c-bit RPD field can guarantee at most this many accesses of
    // protection (one quantum is lost to aging phase when S_d > 1, one
    // count to the self-decrement when S_d == 1).
    const uint32_t sd = std::max(1u, 256u >> nc);
    const uint32_t limit = sd > 1 ? ((1u << nc) - 2) * sd
                                  : (1u << nc) - 1;
    if (pd > limit)
        GTEST_SKIP() << "pd exceeds the n_c protection capability";

    PdpParams params;
    params.dynamic = false;
    params.staticPd = pd;
    params.ncBits = nc;
    params.bypass = true;

    CacheConfig cfg;
    cfg.sizeBytes = 1 * 4 * 64; // one set, 4 ways
    cfg.ways = 4;
    cfg.allowBypass = true;
    Cache cache(cfg, std::make_unique<PdpPolicy>(params));

    // Insert the probe line, then stream pd-1 distinct lines through the
    // set; the probe must still be resident at its reuse.
    AccessContext probe;
    probe.lineAddr = 0x5000;
    cache.access(probe);
    for (uint32_t i = 0; i + 1 < pd; ++i) {
        AccessContext ctx;
        ctx.lineAddr = 0x9000 + i;
        cache.access(ctx);
    }
    EXPECT_TRUE(cache.contains(0x5000))
        << "pd=" << pd << " nc=" << nc;
}

INSTANTIATE_TEST_SUITE_P(
    PdTimesNc, ProtectionSweepTest,
    ::testing::Combine(::testing::Values(4u, 16u, 40u, 72u, 100u, 128u,
                                         200u, 256u),
                       ::testing::Values(2u, 3u, 5u, 8u)));

// ---------------------------------------------------------------------
// Sampler exactness across geometries.
// ---------------------------------------------------------------------

class SamplerSweepTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{
};

TEST_P(SamplerSweepTest, MeasuredDistancesAreExact)
{
    const uint32_t entries = std::get<0>(GetParam());
    const uint32_t rate = std::get<1>(GetParam());

    RdSamplerParams params;
    params.sampledSets = 1;
    params.fifoEntries = entries;
    params.insertionRate = rate;
    params.dMax = 256;
    RdSampler sampler(params, 1);

    Rng rng(entries * 131 + rate);
    std::unordered_map<uint64_t, uint64_t> last;
    uint64_t count = 0;
    uint64_t verified = 0;
    for (int i = 0; i < 80000; ++i) {
        const uint64_t line = rng.below(96);
        ++count;
        const auto it = last.find(line);
        const uint64_t true_rd = it == last.end() ? 0 : count - it->second;
        last[line] = count;
        const RdObservation obs = sampler.observe(0, line);
        if (obs.rd && true_rd > 0 && true_rd <= 256) {
            EXPECT_EQ(*obs.rd, true_rd)
                << "entries=" << entries << " rate=" << rate;
            ++verified;
        }
    }
    EXPECT_GT(verified, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SamplerSweepTest,
    ::testing::Combine(::testing::Values(8u, 32u, 64u, 256u),
                       ::testing::Values(1u, 2u, 8u, 16u)));

// ---------------------------------------------------------------------
// Model well-formedness on random RDDs.
// ---------------------------------------------------------------------

class ModelPropertyTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ModelPropertyTest, CurveAndBestPdAreWellFormed)
{
    Rng rng(GetParam());
    RdCounterArray rdd(256, 4);
    const int hits = 200 + static_cast<int>(rng.below(3000));
    for (int i = 0; i < hits; ++i)
        rdd.recordHit(1 + static_cast<uint32_t>(rng.below(256)));
    const int total = hits + static_cast<int>(rng.below(4000));
    for (int i = 0; i < total; ++i)
        rdd.recordAccess();

    HitRateModel model(16);
    const auto curve = model.curve(rdd);
    ASSERT_EQ(curve.size(), rdd.numBuckets());
    for (const EPoint &p : curve) {
        EXPECT_GE(p.e, 0.0);
        EXPECT_LE(p.e, 1.0); // E = hits/occupancy <= 1 since occ >= hits
        EXPECT_GE(p.dp, 4u);
        EXPECT_LE(p.dp, 256u);
    }
    const uint32_t best = model.bestPd(rdd);
    EXPECT_GE(best, 4u);
    EXPECT_LE(best, 256u);
    // bestPd's E is within the plateau tolerance of the true maximum.
    double max_e = 0.0, best_e = 0.0;
    for (const EPoint &p : curve) {
        max_e = std::max(max_e, p.e);
        if (p.dp == best)
            best_e = p.e;
    }
    EXPECT_GE(best_e, max_e * 0.95 - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomRdds, ModelPropertyTest,
                         ::testing::Range<uint64_t>(1, 26));

// ---------------------------------------------------------------------
// Microprogram equivalence across counter geometries and random RDDs.
// ---------------------------------------------------------------------

class PdProcSweepTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>>
{
};

TEST_P(PdProcSweepTest, MatchesFixedPointReference)
{
    const uint32_t step = std::get<0>(GetParam());
    const uint64_t seed = std::get<1>(GetParam());
    Rng rng(seed * 977 + step);
    RdCounterArray rdd(256, step);
    for (int i = 0; i < 2500; ++i)
        rdd.recordHit(1 + static_cast<uint32_t>(rng.below(256)));
    for (int i = 0; i < 4000; ++i)
        rdd.recordAccess();
    EXPECT_EQ(pdprocBestPd(rdd).pd, pdprocReferenceBestPd(rdd));
}

INSTANTIATE_TEST_SUITE_P(
    StepsAndSeeds, PdProcSweepTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u, 16u),
                       ::testing::Range<uint64_t>(1, 9)));
