/**
 * @file
 * Unit tests for the cache substrate: geometry, hit/miss/evict semantics,
 * bypass handling, per-thread stats, the two-level hierarchy and the
 * occupancy tracker.
 */

#include <gtest/gtest.h>

#include <random>

#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "cache/occupancy_tracker.h"
#include "check/invariant_auditor.h"
#include "policies/basic.h"
#include "policies/replacement_policy.h"

using namespace pdp;

namespace
{

CacheConfig
tinyConfig(uint32_t sets = 4, uint32_t ways = 2, bool bypass = false)
{
    CacheConfig cfg;
    cfg.sizeBytes = static_cast<uint64_t>(sets) * ways * 64;
    cfg.ways = ways;
    cfg.allowBypass = bypass;
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

/** A policy that always bypasses once the set is full. */
class AlwaysBypassPolicy : public ReplacementPolicy
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "AlwaysBypass";
        return n;
    }
    bool usesBypass() const override { return true; }
    void onHit(const AccessContext &, int) override {}
    int selectVictim(const AccessContext &) override { return kBypass; }
    void onInsert(const AccessContext &, int) override {}
};

} // namespace

TEST(CacheConfig, GeometryDerivation)
{
    const CacheConfig llc = CacheConfig::paperLlc();
    EXPECT_EQ(llc.numSets(), 2048u);
    EXPECT_EQ(llc.numLines(), 32768u);
    EXPECT_TRUE(llc.valid());

    const CacheConfig l2 = CacheConfig::paperL2();
    EXPECT_EQ(l2.numSets(), 512u);
    EXPECT_EQ(l2.ways, 8u);
}

TEST(CacheConfig, ScaledSharedLlc)
{
    const CacheConfig shared = CacheConfig::paperLlc(16);
    EXPECT_EQ(shared.sizeBytes, 32ull * 1024 * 1024);
    EXPECT_EQ(shared.numSets(), 32768u);
}

TEST(Cache, MissThenHit)
{
    Cache cache(tinyConfig(), std::make_unique<LruPolicy>());
    EXPECT_FALSE(cache.access(at(0x100)).hit);
    EXPECT_TRUE(cache.access(at(0x100)).hit);
    EXPECT_EQ(cache.stats().accesses, 2u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, FillsInvalidWaysFirst)
{
    Cache cache(tinyConfig(4, 2), std::make_unique<LruPolicy>());
    // Two lines mapping to set 0 fit side by side.
    EXPECT_FALSE(cache.access(at(0)).hit);
    EXPECT_FALSE(cache.access(at(4)).hit);
    EXPECT_TRUE(cache.access(at(0)).hit);
    EXPECT_TRUE(cache.access(at(4)).hit);
}

TEST(Cache, LruEvictsOldest)
{
    Cache cache(tinyConfig(4, 2), std::make_unique<LruPolicy>());
    cache.access(at(0));
    cache.access(at(4));
    cache.access(at(0));                       // 4 is now LRU
    const AccessOutcome out = cache.access(at(8));
    EXPECT_TRUE(out.evictedValid);
    EXPECT_EQ(out.evictedAddr, 4u);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(4));
}

TEST(Cache, ReusedBitTracksHits)
{
    Cache cache(tinyConfig(), std::make_unique<LruPolicy>());
    cache.access(at(0));
    const AccessOutcome first = cache.access(at(0));
    EXPECT_TRUE(cache.isReused(0, first.way));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache cache(tinyConfig(4, 1), std::make_unique<LruPolicy>());
    cache.access(at(0, 0, /*write=*/true));
    const AccessOutcome out = cache.access(at(4));
    EXPECT_TRUE(out.evictedValid);
    EXPECT_TRUE(out.evictedDirty);
    EXPECT_EQ(cache.stats().evictionsDirty, 1u);
}

TEST(Cache, BypassPathCounts)
{
    auto cfg = tinyConfig(4, 1, /*bypass=*/true);
    Cache cache(cfg, std::make_unique<AlwaysBypassPolicy>());
    cache.access(at(0));                       // fills invalid way
    const AccessOutcome out = cache.access(at(4));
    EXPECT_TRUE(out.bypassed);
    EXPECT_FALSE(cache.contains(4));
    EXPECT_EQ(cache.stats().bypasses, 1u);
}

TEST(Cache, BypassOnInclusiveCacheThrows)
{
    Cache cache(tinyConfig(4, 1, /*bypass=*/false),
                std::make_unique<AlwaysBypassPolicy>());
    cache.access(at(0));
    EXPECT_THROW(cache.access(at(4)), std::logic_error);
}

TEST(Cache, PerThreadStats)
{
    Cache cache(tinyConfig(), std::make_unique<LruPolicy>());
    cache.access(at(0, 1));
    cache.access(at(0, 1));
    cache.access(at(64, 2));
    EXPECT_EQ(cache.stats().threadAccesses[1], 2u);
    EXPECT_EQ(cache.stats().threadHits[1], 1u);
    EXPECT_EQ(cache.stats().threadMisses[2], 1u);
}

TEST(Cache, ThreadWaysInSet)
{
    Cache cache(tinyConfig(4, 2), std::make_unique<LruPolicy>());
    cache.access(at(0, 3));
    cache.access(at(4, 5));
    EXPECT_EQ(cache.threadWaysInSet(0, 3), 1u);
    EXPECT_EQ(cache.threadWaysInSet(0, 5), 1u);
    EXPECT_EQ(cache.threadWaysInSet(0, 7), 0u);
}

TEST(Cache, WritebackAccessesSeparate)
{
    Cache cache(tinyConfig(), std::make_unique<LruPolicy>());
    AccessContext wb = at(0x10);
    wb.isWriteback = true;
    cache.access(wb);
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_EQ(cache.stats().writebackAccesses, 1u);
    EXPECT_TRUE(cache.contains(0x10)); // writeback miss allocates
}

TEST(Hierarchy, L2HitDoesNotReachLlc)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg, std::make_unique<LruPolicy>());
    Access a;
    a.lineAddr = 0x1234;
    EXPECT_EQ(h.access(a).level, HitLevel::Memory);
    EXPECT_EQ(h.access(a).level, HitLevel::L2);
    // The second access must not hit the LLC stats.
    EXPECT_EQ(h.llc().stats().accesses, 1u);
}

TEST(Hierarchy, LlcHitAfterL2Eviction)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg, std::make_unique<LruPolicy>());
    Access a;
    a.lineAddr = 0;
    h.access(a);
    // Thrash the L2 set of line 0 (L2 has 512 sets, 8 ways).
    for (uint64_t i = 1; i <= 8; ++i) {
        Access b;
        b.lineAddr = i * 512;
        h.access(b);
    }
    EXPECT_EQ(h.access(a).level, HitLevel::Llc);
}

TEST(Hierarchy, DirtyL2VictimWritesBackToLlc)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg, std::make_unique<LruPolicy>());
    Access a;
    a.lineAddr = 0;
    a.isWrite = true;
    h.access(a);
    const uint64_t wb_before = h.llc().stats().writebackAccesses;
    for (uint64_t i = 1; i <= 8; ++i) {
        Access b;
        b.lineAddr = i * 512;
        h.access(b);
    }
    EXPECT_GT(h.llc().stats().writebackAccesses, wb_before);
}

TEST(OccupancyTracker, ClassifiesEvents)
{
    CacheConfig cfg = tinyConfig(4, 2);
    Cache cache(cfg, std::make_unique<LruPolicy>());
    OccupancyTracker tracker(cache, /*threshold=*/2);
    cache.setObserver(&tracker);

    cache.access(at(0));  // insert
    cache.access(at(0));  // hit after 1 access
    cache.access(at(4));  // insert
    cache.access(at(8));  // evicts line 0 (LRU) after 2 accesses
    const OccupancyBreakdown &b = tracker.breakdown();
    EXPECT_EQ(b.hits, 1u);
    EXPECT_EQ(b.evictsShort + b.evictsLong, 1u);
    EXPECT_GT(b.totalOccupancy(), 0u);
}

TEST(OccupancyTracker, ConservationHoldsUnderRandomizedTraffic)
{
    CacheConfig cfg = tinyConfig(8, 4);
    Cache cache(cfg, std::make_unique<LruPolicy>());
    OccupancyTracker tracker(cache, /*threshold=*/8);
    cache.setObserver(&tracker);

    // Pre-fill every way so each later insert is an insert-with-evict,
    // then zero tracker and cache stats at the same instant (the
    // precondition of the cross-stats audit).
    for (uint64_t line = 0; line < 8u * 4u; ++line)
        cache.access(at(line));
    tracker.reset();
    cache.resetStats();

    // Random traffic over 2x the resident footprint: a mix of hits,
    // misses-with-evict and repeated promotions, in random order.
    std::mt19937_64 rng(20120217);
    for (int i = 0; i < 20'000; ++i)
        cache.access(at(rng() % (8u * 4u * 2u)));

    // With every set full, every demand access is a promotion, a bypass
    // or an insert-with-evict, so the per-set access counters conserve
    // the Fig. 5a event breakdown exactly.
    const OccupancyBreakdown &b = tracker.breakdown();
    EXPECT_EQ(tracker.counterSum(),
              b.hits + b.bypasses + b.evictsShort + b.evictsLong);
    EXPECT_EQ(tracker.counterSum(), b.totalEvents());

    InvariantReporter reporter;
    tracker.auditGlobal(reporter);
    tracker.auditInvariants(cache, /*cross_check_stats=*/true, reporter);
    EXPECT_TRUE(reporter.clean()) << reporter.report();
}

TEST(OccupancyTracker, IncrementalAuditCoversConservation)
{
    CacheConfig cfg = tinyConfig(4, 2);
    Cache cache(cfg, std::make_unique<LruPolicy>());
    OccupancyTracker tracker(cache);
    cache.setObserver(&tracker);

    // 256 accesses stay far below InvariantAuditor::kFullEvery, so every
    // pass is incremental.
    InvariantAuditor auditor(/*cadence=*/1);
    auditor.watchCache(cache);
    auditor.watchOccupancy(cache, tracker);

    std::mt19937_64 rng(7);
    EXPECT_NO_THROW({
        for (int i = 0; i < 256; ++i) {
            cache.access(at(rng() % 16));
            auditor.onAccess();
        }
    });
    EXPECT_EQ(auditor.auditsRun(), 256u);
}
