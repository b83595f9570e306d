/**
 * @file
 * Equivalence and transition tests for the SoA cache substrate.
 *
 * The hot-path overhaul (SoA tag store, packed per-set masks, tag
 * fingerprints, policy state in the per-set scratch row and the fused
 * non-virtual policy paths) is pure layout/dispatch work: every
 * architectural observable must be identical to the frozen pre-SoA
 * ReferenceCache and to the virtual-dispatch policy path.  These tests
 * pin that down:
 *
 *  - lockstep Cache vs ReferenceCache over long random mixes (narrow
 *    and wider-than-fingerprint associativities),
 *  - fused vs virtual dispatch for LRU, the RRIP family and static and
 *    dynamic PDP at 8, 16 and 32 ways (exact type vs `final` subclass),
 *  - the SIMD row kernels vs scalar copies of the loops they replaced,
 *  - packed valid/dirty/reused mask transitions,
 *  - invariant-auditor cleanliness mid-stream (fingerprints, rank
 *    permutation, mask/canonical-state coupling),
 *  - byte-identical smoke-suite JSON across two serial runs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "cache/cache.h"
#include "cache/reference_cache.h"
#include "check/invariant_auditor.h"
#include "core/pdp_policy.h"
#include "policies/basic.h"
#include "policies/rrip.h"
#include "policies/scratch_rows.h"
#include "runner/suites.h"
#include "sim/policy_factory.h"
#include "test_support.h"
#include "util/rng.h"

using namespace pdp;

namespace
{

CacheConfig
smallConfig(uint32_t sets, uint32_t ways)
{
    CacheConfig cfg;
    cfg.sizeBytes = static_cast<uint64_t>(sets) * ways * 64;
    cfg.ways = ways;
    return cfg;
}

AccessContext
at(uint64_t line, uint8_t thread = 0, bool write = false)
{
    AccessContext ctx;
    ctx.lineAddr = line;
    ctx.threadId = thread;
    ctx.isWrite = write;
    return ctx;
}

void
expectSameOutcome(const AccessOutcome &a, const AccessOutcome &b,
                  uint64_t step)
{
    ASSERT_EQ(a.hit, b.hit) << "step " << step;
    ASSERT_EQ(a.bypassed, b.bypassed) << "step " << step;
    ASSERT_EQ(a.way, b.way) << "step " << step;
    ASSERT_EQ(a.evictedValid, b.evictedValid) << "step " << step;
    ASSERT_EQ(a.evictedAddr, b.evictedAddr) << "step " << step;
    ASSERT_EQ(a.evictedDirty, b.evictedDirty) << "step " << step;
    ASSERT_EQ(a.evictedReused, b.evictedReused) << "step " << step;
    ASSERT_EQ(a.evictedThread, b.evictedThread) << "step " << step;
}

/** A pseudo-random demand mix: skewed line addresses (so hits, misses
 *  and evictions all occur), two threads, ~1/4 writes. */
AccessContext
mixedAccess(Rng &rng, uint64_t span)
{
    const uint64_t line = rng.below(span);
    return at(line, static_cast<uint8_t>(line & 1), rng.below(4) == 0);
}

// ---------------------------------------------------------------------------
// Lockstep equivalence against the frozen pre-SoA substrate.

void
runLockstep(const CacheConfig &cfg, uint64_t steps)
{
    Cache soa(cfg, std::make_unique<LruPolicy>());
    ReferenceLru ref_lru;
    ReferenceCache aos(cfg, ref_lru);
    ref_lru.attach(aos.numSets(), aos.numWays());

    Rng rng(0x5ca1ab1e + cfg.ways);
    const uint64_t span = static_cast<uint64_t>(cfg.numLines()) * 3;
    for (uint64_t i = 0; i < steps; ++i) {
        AccessContext ctx = mixedAccess(rng, span);
        ctx.set = soa.setIndex(ctx.lineAddr);
        const AccessOutcome a = soa.access(ctx);
        const AccessOutcome b = aos.access(ctx);
        expectSameOutcome(a, b, i);
        if (::testing::Test::HasFatalFailure())
            return;
    }

    // Final architectural state, way by way.
    for (uint32_t set = 0; set < soa.numSets(); ++set)
        for (uint32_t way = 0; way < soa.numWays(); ++way) {
            ASSERT_EQ(soa.isValid(set, way), aos.isValid(set, way));
            ASSERT_EQ(soa.isDirty(set, way), aos.isDirty(set, way));
            ASSERT_EQ(soa.isReused(set, way), aos.isReused(set, way));
            ASSERT_EQ(soa.lineAddr(set, way), aos.lineAddr(set, way));
            ASSERT_EQ(soa.lineThread(set, way), aos.lineThread(set, way));
        }
    EXPECT_EQ(soa.stats().hits, aos.stats().hits);
    EXPECT_EQ(soa.stats().misses, aos.stats().misses);
    EXPECT_EQ(soa.stats().accesses, aos.stats().accesses);
}

TEST(HotpathEquivalence, LockstepMatchesReferenceNarrow)
{
    // Fingerprint + scratch fast path (ways <= kMaxFpWays).
    runLockstep(smallConfig(64, 8), 200000);
}

TEST(HotpathEquivalence, LockstepMatchesReferencePaperGeometry)
{
    runLockstep(smallConfig(128, 16), 200000);
}

TEST(HotpathEquivalence, LockstepMatchesReferenceWide)
{
    // Wider than kMaxFpWays: full-tag-scan fallback and policy-owned
    // rank storage.
    ASSERT_GT(32u, Cache::kMaxFpWays);
    runLockstep(smallConfig(16, 32), 100000);
}

// ---------------------------------------------------------------------------
// Fused vs virtual dispatch.  The cache fuses exact instances of the
// types in cache.cc's list; a `final` subclass with no overrides behaves
// identically but takes the virtual path, so the two must agree access
// for access.

class UnfusedLru final : public LruPolicy
{
};

class UnfusedRrip final : public RripPolicy
{
  public:
    using RripPolicy::RripPolicy;
};

class UnfusedPdp final : public PdpPolicy
{
  public:
    using PdpPolicy::PdpPolicy;
};

/** Demand reads and writes from two threads plus ~1/8 writebacks and
 *  ~1/16 prefetches, so PDP's demand-only aging and its prefetch
 *  insertion paths are exercised too. */
AccessContext
fullMixAccess(Rng &rng, uint64_t span)
{
    AccessContext ctx = mixedAccess(rng, span);
    ctx.pc = 0x400000 + (ctx.lineAddr & 0xff) * 4;
    if (rng.below(8) == 0)
        ctx.isWriteback = true;
    else if (rng.below(16) == 0)
        ctx.isPrefetch = true;
    return ctx;
}

void
runFusedVsVirtual(uint32_t ways, std::unique_ptr<ReplacementPolicy> fused,
                  std::unique_ptr<ReplacementPolicy> unfused,
                  uint64_t steps)
{
    // 256 sets: followers exist between the 32 dueling leader pairs, and
    // the RD sampler's 32 FIFOs fit.
    CacheConfig cfg = smallConfig(256, ways);
    cfg.allowBypass = fused->usesBypass();
    Cache a(cfg, std::move(fused));
    Cache b(cfg, std::move(unfused));
    ASSERT_TRUE(a.fusedPath()) << a.policy().name();
    ASSERT_FALSE(b.fusedPath()) << b.policy().name();

    Rng rng(0xfeedface + ways);
    const uint64_t span = static_cast<uint64_t>(cfg.numLines()) * 3;
    for (uint64_t i = 0; i < steps; ++i) {
        AccessContext ctx = fullMixAccess(rng, span);
        ctx.set = a.setIndex(ctx.lineAddr);
        const AccessOutcome x = a.access(ctx);
        const AccessOutcome y = b.access(ctx);
        expectSameOutcome(x, y, i);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    const CacheStats &sa = a.stats();
    const CacheStats &sb = b.stats();
    EXPECT_EQ(sa.accesses, sb.accesses);
    EXPECT_EQ(sa.hits, sb.hits);
    EXPECT_EQ(sa.misses, sb.misses);
    EXPECT_EQ(sa.bypasses, sb.bypasses);
    EXPECT_EQ(sa.writebackAccesses, sb.writebackAccesses);
    EXPECT_EQ(sa.evictionsDirty, sb.evictionsDirty);
    EXPECT_EQ(sa.prefetchFills, sb.prefetchFills);
    for (unsigned t = 0; t < CacheStats::kMaxThreads; ++t)
        EXPECT_EQ(sa.threadHits[t], sb.threadHits[t]) << "thread " << t;
    // Dynamic PDP must have left its warmup and recomputed its PD.
    const auto *pdp = dynamic_cast<const PdpPolicy *>(&a.policy());
    if (pdp && pdp->params().dynamic) {
        EXPECT_FALSE(pdp->pdHistory().empty());
    }
}

TEST(HotpathEquivalence, FusedLruMatchesVirtualLru)
{
    for (uint32_t ways : {8u, 16u, 32u}) {
        SCOPED_TRACE(ways);
        runFusedVsVirtual(ways, std::make_unique<LruPolicy>(),
                          std::make_unique<UnfusedLru>(), 200000);
    }
}

PdpParams
pdpParams(bool dynamic, bool bypass, unsigned nc_bits, uint32_t static_pd)
{
    PdpParams params;
    params.dynamic = dynamic;
    params.bypass = bypass;
    params.ncBits = nc_bits;
    params.staticPd = static_pd;
    return params;
}

struct FusedCase
{
    const char *spec;
    /** The same policy as makePolicy(spec), as a virtual-path subclass. */
    std::unique_ptr<ReplacementPolicy> (*unfused)();
};

void
PrintTo(const FusedCase &c, std::ostream *os)
{
    *os << c.spec;
}

const FusedCase kFusedCases[] = {
    {"SRRIP",
     [] { return std::unique_ptr<ReplacementPolicy>(
              new UnfusedRrip(RripPolicy::Mode::Srrip)); }},
    {"BRRIP",
     [] { return std::unique_ptr<ReplacementPolicy>(
              new UnfusedRrip(RripPolicy::Mode::Brrip)); }},
    {"DRRIP",
     [] { return std::unique_ptr<ReplacementPolicy>(
              new UnfusedRrip(RripPolicy::Mode::Drrip)); }},
    {"SPDP-NB:64",
     [] { return std::unique_ptr<ReplacementPolicy>(
              new UnfusedPdp(pdpParams(false, false, 8, 64))); }},
    {"SPDP-B:64",
     [] { return std::unique_ptr<ReplacementPolicy>(
              new UnfusedPdp(pdpParams(false, true, 8, 64))); }},
    {"PDP-3",
     [] { return std::unique_ptr<ReplacementPolicy>(
              new UnfusedPdp(pdpParams(true, true, 3, 64))); }},
    {"PDP-8",
     [] { return std::unique_ptr<ReplacementPolicy>(
              new UnfusedPdp(pdpParams(true, true, 8, 64))); }},
    {"PDP-8-NB",
     [] { return std::unique_ptr<ReplacementPolicy>(
              new UnfusedPdp(pdpParams(true, false, 8, 64))); }},
};

class FusedVsVirtual
    : public ::testing::TestWithParam<std::tuple<FusedCase, uint32_t>>
{
};

TEST_P(FusedVsVirtual, LockstepOutcomesAndStatsMatch)
{
    const auto &[c, ways] = GetParam();
    auto fused = makePolicy(c.spec);
    auto unfused = c.unfused();
    ASSERT_EQ(fused->name(), unfused->name());
    // Long enough for dynamic PDP to leave its sampler warmup and
    // recompute its PD at least once.
    runFusedVsVirtual(ways, std::move(fused), std::move(unfused), 400000);
}

INSTANTIATE_TEST_SUITE_P(
    RripAndPdp, FusedVsVirtual,
    ::testing::Combine(::testing::ValuesIn(kFusedCases),
                       ::testing::Values(8u, 16u, 32u)),
    [](const ::testing::TestParamInfo<FusedVsVirtual::ParamType> &info) {
        std::string name = std::get<0>(info.param).spec;
        for (char &ch : name)
            if (ch == '-' || ch == ':')
                ch = '_';
        return name + "_" + std::to_string(std::get<1>(info.param)) + "way";
    });

// ---------------------------------------------------------------------------
// Row kernels against scalar copies of the loops they replaced.

/** The RRIP victim loop as it was: the first way at max, else age every
 *  way by one (uint8 wrap-around included) and retry. */
int
referenceRripVictim(uint8_t *row, uint32_t ways, uint8_t max)
{
    for (;;) {
        for (uint32_t way = 0; way < ways; ++way)
            if (row[way] == max)
                return static_cast<int>(way);
        for (uint32_t way = 0; way < ways; ++way)
            ++row[way];
    }
}

/** PDP's per-way tick as it was. */
void
referenceTick(uint8_t *row, uint32_t ways)
{
    for (uint32_t way = 0; way < ways; ++way)
        if (row[way] > 0)
            --row[way];
}

/** A random RRPV/RPD-like byte: mostly small, sometimes anything. */
uint8_t
randomRowByte(Rng &rng, uint8_t max)
{
    return rng.below(8) == 0 ? static_cast<uint8_t>(rng.below(256))
                             : static_cast<uint8_t>(rng.below(max + 1u));
}

TEST(HotpathRowKernels, RripTakeVictimMatchesAgingLoop)
{
    Rng rng(0x7217);
    for (int trial = 0; trial < 20000; ++trial) {
        // vec16 rows: one 16-byte scratch row, junk past `ways`.
        // Scalar rows: up to 64 ways with byte-scan padding.
        const bool vec16 = trial % 2 == 0;
        const uint32_t ways = vec16
            ? 1 + static_cast<uint32_t>(rng.below(16))
            : 1 + static_cast<uint32_t>(rng.below(64));
        const uint8_t max = trial % 3 == 0 ? 255 : trial % 3 == 1 ? 3 : 7;
        std::vector<uint8_t> row(64 + kByteScanPadding);
        for (uint8_t &b : row)
            b = static_cast<uint8_t>(rng.below(256));
        for (uint32_t way = 0; way < ways; ++way)
            row[way] = randomRowByte(rng, max);
        std::vector<uint8_t> expect = row;

        const int want = referenceRripVictim(expect.data(), ways, max);
        const int got = rripTakeVictim(row.data(), ways, max, vec16);
        ASSERT_EQ(got, want) << "trial " << trial << " ways " << ways;
        for (uint32_t way = 0; way < ways; ++way)
            ASSERT_EQ(row[way], expect[way])
                << "trial " << trial << " way " << way;
    }
}

TEST(HotpathRowKernels, SaturatingTickMatchesPerWayLoop)
{
    Rng rng(0x71c4);
    for (int trial = 0; trial < 20000; ++trial) {
        const bool vec16 = trial % 2 == 0;
        const uint32_t ways = vec16
            ? 1 + static_cast<uint32_t>(rng.below(16))
            : 1 + static_cast<uint32_t>(rng.below(64));
        std::vector<uint8_t> row(64 + kByteScanPadding);
        for (uint8_t &b : row)
            b = randomRowByte(rng, 3);
        std::vector<uint8_t> expect = row;
        referenceTick(expect.data(), ways);
        rowDecrementSaturating(row.data(), ways, vec16);
        for (uint32_t way = 0; way < ways; ++way)
            ASSERT_EQ(row[way], expect[way])
                << "trial " << trial << " way " << way;
    }
}

/** A cache of `ways` ways under `policy`, every set full. */
template <typename Policy>
std::unique_ptr<Cache>
filledCache(uint32_t ways, std::unique_ptr<Policy> policy)
{
    CacheConfig cfg = smallConfig(64, ways);
    cfg.allowBypass = policy->usesBypass();
    auto cache = std::make_unique<Cache>(cfg, std::move(policy));
    Rng rng(0xf111 + ways);
    const uint64_t span = static_cast<uint64_t>(cfg.numLines()) * 2;
    for (uint64_t line = 0; line < span; ++line)
        cache->access(at(line));
    for (int i = 0; i < 20000; ++i)
        cache->access(mixedAccess(rng, span));
    return cache;
}

TEST(HotpathRowKernels, RripPolicyVictimMatchesLoopOnInjectedRows)
{
    for (uint32_t ways : {8u, 16u, 32u}) {
        SCOPED_TRACE(ways);
        auto owned = std::make_unique<RripPolicy>(RripPolicy::Mode::Srrip);
        RripPolicy &rrip = *owned;
        auto cache = filledCache(ways, std::move(owned));
        Rng rng(0x1a7e + ways);
        for (int trial = 0; trial < 2000; ++trial) {
            const uint32_t set = static_cast<uint32_t>(rng.below(64));
            std::vector<uint8_t> expect(ways);
            for (uint32_t way = 0; way < ways; ++way) {
                // Values above the 2-bit max (corruption the auditor
                // reports) age through the uint8 wrap-around.
                expect[way] = randomRowByte(rng, 3);
                rrip.debugSetRrpv(set, static_cast<int>(way), expect[way]);
            }
            const int want = referenceRripVictim(expect.data(), ways, 3);
            AccessContext ctx = at(set);
            ctx.set = set;
            ASSERT_EQ(rrip.selectVictim(ctx), want) << "trial " << trial;
            for (uint32_t way = 0; way < ways; ++way)
                ASSERT_EQ(rrip.debugRrpv(set, static_cast<int>(way)),
                          expect[way])
                    << "trial " << trial << " way " << way;
        }
    }
}

TEST(HotpathRowKernels, PdpTickAndVictimMatchPerWayScans)
{
    for (bool bypass : {true, false}) {
        for (uint32_t ways : {8u, 16u, 32u}) {
            SCOPED_TRACE(::testing::Message()
                         << (bypass ? "SPDP-B" : "SPDP-NB") << " " << ways);
            auto owned = std::make_unique<PdpPolicy>(
                pdpParams(false, bypass, 8, 64));
            PdpPolicy &pdp = *owned;
            auto cache = filledCache(ways, std::move(owned));
            Rng rng(0x9d9 + ways);
            for (int trial = 0; trial < 2000; ++trial) {
                const uint32_t set = static_cast<uint32_t>(rng.below(64));
                std::vector<uint8_t> expect(ways);
                for (uint32_t way = 0; way < ways; ++way) {
                    // Half the trials leave no unprotected line.
                    expect[way] = trial % 2
                        ? static_cast<uint8_t>(1 + rng.below(255))
                        : randomRowByte(rng, 2);
                    pdp.debugSetRpd(set, static_cast<int>(way), expect[way]);
                }
                AccessContext ctx = at(set);
                ctx.set = set;

                // Victim: the first unprotected way; else bypass, or the
                // youngest never-reused line, else the youngest line.
                int want = ReplacementPolicy::kBypass;
                for (uint32_t way = 0; way < ways && want < 0; ++way)
                    if (expect[way] == 0)
                        want = static_cast<int>(way);
                if (want < 0 && !bypass) {
                    uint8_t best = 0;
                    for (uint32_t way = 0; way < ways; ++way)
                        if (!cache->isReused(set, way) && expect[way] >= best) {
                            best = expect[way];
                            want = static_cast<int>(way);
                        }
                    if (want < 0)
                        for (uint32_t way = 0; way < ways; ++way)
                            if (expect[way] >= best) {
                                best = expect[way];
                                want = static_cast<int>(way);
                            }
                }
                ASSERT_EQ(pdp.selectVictim(ctx), want) << "trial " << trial;

                // Tick: a demand bypass ages the set once (S_d = 1).
                referenceTick(expect.data(), ways);
                pdp.onBypass(ctx);
                for (uint32_t way = 0; way < ways; ++way)
                    ASSERT_EQ(pdp.debugRpd(set, static_cast<int>(way)),
                              expect[way])
                        << "trial " << trial << " way " << way;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Packed-mask transitions.

TEST(HotpathMasks, InsertHitWriteInvalidateTransitions)
{
    const CacheConfig cfg = smallConfig(4, 2);
    Cache cache(cfg, std::make_unique<LruPolicy>());
    const uint64_t line = 4; // set 0 in a 4-set cache

    // Install: valid bit appears, dirty/reused stay clear.
    AccessOutcome out = cache.access(at(line));
    EXPECT_FALSE(out.hit);
    ASSERT_EQ(out.way, 0);
    EXPECT_EQ(cache.validMask(0), 1u);
    EXPECT_FALSE(cache.isDirty(0, 0));
    EXPECT_FALSE(cache.isReused(0, 0));

    // Re-reference: hit, reused bit set.
    out = cache.access(at(line));
    EXPECT_TRUE(out.hit);
    EXPECT_TRUE(cache.isReused(0, 0));
    EXPECT_FALSE(cache.isDirty(0, 0));

    // Write hit: dirty bit set.
    out = cache.access(at(line, 0, true));
    EXPECT_TRUE(out.hit);
    EXPECT_TRUE(cache.isDirty(0, 0));

    // Fill the set, then miss: the LRU victim is the original line,
    // and the eviction reports the packed dirty/reused state it
    // accumulated.
    cache.access(at(line + 4));
    EXPECT_EQ(cache.validMask(0), 3u);
    out = cache.access(at(line + 8));
    EXPECT_TRUE(out.evictedValid);
    EXPECT_EQ(out.evictedAddr, line);
    EXPECT_TRUE(out.evictedDirty);
    EXPECT_TRUE(out.evictedReused);
    out = cache.access(at(line));
    EXPECT_TRUE(out.evictedValid);
    EXPECT_EQ(out.evictedAddr, line + 4); // untouched since install
    EXPECT_FALSE(out.evictedDirty);
    EXPECT_FALSE(out.evictedReused);

    // The line that evicted the original one is still resident.
    out = cache.access(at(line + 8));
    EXPECT_TRUE(out.hit);
    EXPECT_GE(out.way, 0);
}

TEST(HotpathMasks, AuditorStaysCleanMidStream)
{
    // The auditor cross-checks the packed masks, fingerprints and rank
    // permutation against the canonical line state; a drifting SoA
    // representation (stale fingerprint, broken rank row, mask/tag
    // mismatch) fails here.
    const CacheConfig cfg = smallConfig(32, 16);
    Cache cache(cfg, std::make_unique<LruPolicy>());
    Rng rng(0xa0d17);
    const uint64_t span = static_cast<uint64_t>(cfg.numLines()) * 3;
    for (int i = 0; i < 50000; ++i) {
        AccessContext ctx = mixedAccess(rng, span);
        ctx.set = cache.setIndex(ctx.lineAddr);
        cache.access(ctx);
        if (i % 5000 == 4999) {
            InvariantReporter reporter;
            cache.auditInvariants(reporter);
            ASSERT_TRUE(reporter.clean()) << reporter.report();
        }
    }
}

// ---------------------------------------------------------------------------
// Smoke-suite JSON determinism.

TEST(HotpathDeterminism, SmokeSuiteJsonIsByteIdentical)
{
    // The deterministic (volatile-free) smoke-suite document must be
    // byte-identical across serial runs: the SoA refactor may change
    // throughput but never results.  (accesses_per_sec-style metrics
    // live only in the hotpath suite, which determinism tests skip by
    // design.)
    const runner::Suite *smoke = runner::findSuite("smoke");
    ASSERT_NE(smoke, nullptr);

    runner::SuiteOptions options;
    options.scale = 0.05;

    const auto runOnce = [&]() {
        runner::ResultsSink sink(smoke->name);
        sink.setScale(options.scale);
        for (runner::Job &job : smoke->buildJobs(options)) {
            runner::JobRecord record;
            record.key = job.key;
            record.status = runner::JobStatus::Ok;
            runner::JobContext ctx;
            ctx.seed = job.seed;
            record.outcome = sequentialJob(job).run(ctx);
            sink.add(std::move(record));
        }
        return sink.toJson(false).dump(2);
    };

    const std::string first = runOnce();
    const std::string second = runOnce();
    EXPECT_EQ(first, second);
    EXPECT_FALSE(first.empty());
}

} // namespace
