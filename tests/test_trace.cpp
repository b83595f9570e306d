/**
 * @file
 * Tests for the synthetic trace layer: pattern primitives, mixtures,
 * generator determinism/rewind, the RDD fingerprints of the suite (the
 * calibration contract every experiment depends on), and the service
 * tenant streams (Zipf guide-table lookups, the process-wide table
 * registry, block generation).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <latch>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "core/rd_profiler.h"
#include "policies/basic.h"
#include "trace/patterns.h"
#include "trace/spec_suite.h"
#include "trace/tenant_stream.h"
#include "trace/workload.h"
#include "trace/zipf.h"
#include "util/rng.h"

using namespace pdp;

TEST(Patterns, LoopCyclesDeterministically)
{
    LoopPattern loop(4);
    loop.bind(0, 0, 1);
    Rng rng(1);
    std::vector<uint64_t> first;
    for (int i = 0; i < 8; ++i)
        first.push_back(loop.nextLine(rng));
    EXPECT_EQ(first[0], first[4]);
    EXPECT_EQ(first[3], first[7]);
    std::set<uint64_t> distinct(first.begin(), first.end());
    EXPECT_EQ(distinct.size(), 4u);
}

TEST(Patterns, LoopDriftShiftsWindow)
{
    LoopPattern loop(4, 1, /*drift_period=*/8);
    loop.bind(0, 0, 1);
    Rng rng(1);
    std::set<uint64_t> lines;
    for (int i = 0; i < 64; ++i)
        lines.insert(loop.nextLine(rng));
    // With drift, more than the base working set is touched over time.
    EXPECT_GT(lines.size(), 4u);
}

TEST(Patterns, ScanNeverRepeatsWithinRun)
{
    ScanPattern scan;
    scan.bind(0, 0, 1);
    Rng rng(1);
    std::set<uint64_t> seen;
    for (int i = 0; i < 10000; ++i)
        EXPECT_TRUE(seen.insert(scan.nextLine(rng)).second);
}

TEST(Patterns, ChaseStaysInWorkingSet)
{
    ChasePattern chase(100);
    chase.bind(1 << 20, 0, 1);
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        const uint64_t line = chase.nextLine(rng);
        EXPECT_GE(line, 1u << 20);
        EXPECT_LT(line, (1u << 20) + 100);
    }
}

TEST(Patterns, HotColdConcentratesOnHotSet)
{
    HotColdPattern pattern({{10, 0.9}, {1000, 0.1}});
    pattern.bind(0, 0, 1);
    Rng rng(3);
    int hot = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hot += pattern.nextLine(rng) < 10;
    // Hot lines get their own 90% plus a share of the cold draws.
    EXPECT_GT(static_cast<double>(hot) / n, 0.85);
}

TEST(Patterns, MixtureRespectsWeights)
{
    std::vector<MixtureComponent> comps;
    auto a = std::make_unique<LoopPattern>(4);
    a->bind(0, 0, 1);
    auto b = std::make_unique<ScanPattern>();
    b->bind(1ull << 30, 0, 1);
    comps.push_back({0.75, std::move(a)});
    comps.push_back({0.25, std::move(b)});
    MixturePattern mix(std::move(comps));
    Rng rng(4);
    int low = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        low += mix.nextLine(rng) < (1ull << 30);
    EXPECT_NEAR(static_cast<double>(low) / n, 0.75, 0.02);
}

TEST(SpecSuite, RegistryIsConsistent)
{
    EXPECT_GE(SpecSuite::all().size(), 23u);
    for (const auto &info : SpecSuite::all()) {
        EXPECT_TRUE(SpecSuite::contains(info.name));
        EXPECT_FALSE(info.description.empty());
    }
    EXPECT_FALSE(SpecSuite::contains("999.nope"));
    EXPECT_THROW(SpecSuite::make("999.nope"), std::invalid_argument);
    EXPECT_EQ(SpecSuite::singleCoreNames().size(), 18u);
    EXPECT_EQ(SpecSuite::multiCoreNames().size(), 16u);
    EXPECT_EQ(SpecSuite::phasedNames().size(), 5u);
}

TEST(SpecSuite, GeneratorIsDeterministicAndRewindable)
{
    auto a = SpecSuite::make("403.gcc");
    auto b = SpecSuite::make("403.gcc");
    for (int i = 0; i < 1000; ++i) {
        const Access x = a->next();
        const Access y = b->next();
        EXPECT_EQ(x.lineAddr, y.lineAddr);
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(x.instrGap, y.instrGap);
    }
    const Access first = SpecSuite::make("403.gcc")->next();
    a->reset();
    const Access again = a->next();
    EXPECT_EQ(first.lineAddr, again.lineAddr);
}

TEST(SpecSuite, InstancesUseDisjointAddressSpaces)
{
    auto a = SpecSuite::make("429.mcf", 1, 0, 1);
    auto b = SpecSuite::make("429.mcf", 1, 1, 2);
    std::set<uint64_t> lines_a;
    for (int i = 0; i < 5000; ++i)
        lines_a.insert(a->next().lineAddr);
    for (int i = 0; i < 5000; ++i)
        EXPECT_EQ(lines_a.count(b->next().lineAddr), 0u);
}

namespace
{

/** Exact LLC-input RDD fingerprint of a benchmark. */
struct Fingerprint
{
    uint32_t peak;
    double covered;
};

Fingerprint
fingerprint(const std::string &bench, uint64_t accesses = 1'200'000)
{
    auto gen = SpecSuite::make(bench);
    Cache l2(CacheConfig::paperL2(), std::make_unique<LruPolicy>());
    RdProfiler profiler(2048, 256);
    for (uint64_t i = 0; i < accesses; ++i) {
        const Access a = gen->next();
        AccessContext ctx;
        ctx.lineAddr = a.lineAddr;
        if (!l2.access(ctx).hit)
            profiler.observe(a.lineAddr & 2047, a.lineAddr);
    }
    return {profiler.peakRd(), profiler.coveredFraction()};
}

} // namespace

TEST(SuiteFingerprints, CactusAdmPeakNear72)
{
    const Fingerprint fp = fingerprint("436.cactusADM");
    EXPECT_GE(fp.peak, 56u);
    EXPECT_LE(fp.peak, 90u);
    EXPECT_GT(fp.covered, 0.5);
}

TEST(SuiteFingerprints, SphinxPeakNear100)
{
    const Fingerprint fp = fingerprint("482.sphinx3");
    EXPECT_GE(fp.peak, 80u);
    EXPECT_LE(fp.peak, 125u);
}

TEST(SuiteFingerprints, XalancWindowsPeakInOrder)
{
    const Fingerprint w2 = fingerprint("483.xalancbmk.2");
    const Fingerprint w3 = fingerprint("483.xalancbmk.3");
    EXPECT_GE(w2.peak, 70u);
    EXPECT_LE(w2.peak, 105u);
    EXPECT_GE(w3.peak, 100u);
    EXPECT_LE(w3.peak, 150u);
}

TEST(SuiteFingerprints, StreamingBenchmarksHaveLowCoverage)
{
    EXPECT_LT(fingerprint("433.milc").covered, 0.35);
    EXPECT_LT(fingerprint("470.lbm").covered, 0.35);
}

TEST(SuiteFingerprints, AstarIsLruFriendly)
{
    // Most reuse within a short distance: LRU must already perform well.
    auto gen = SpecSuite::make("473.astar");
    HierarchyConfig cfg;
    Hierarchy h(cfg, std::make_unique<LruPolicy>());
    for (int i = 0; i < 600000; ++i)
        h.access(gen->next());
    EXPECT_GT(h.llc().stats().hitRate(), 0.5);
}

TEST(Workloads, DeterministicAndWellFormed)
{
    const auto a = randomWorkloads(8, 4, 42);
    const auto b = randomWorkloads(8, 4, 42);
    ASSERT_EQ(a.size(), 8u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].benchmarks, b[i].benchmarks);
        EXPECT_EQ(a[i].benchmarks.size(), 4u);
        for (const auto &bench : a[i].benchmarks)
            EXPECT_TRUE(SpecSuite::contains(bench));
    }
    EXPECT_NE(randomWorkloads(1, 4, 1)[0].benchmarks,
              randomWorkloads(1, 4, 2)[0].benchmarks);
}

TEST(Workloads, InstantiateStampsThreadIds)
{
    const auto spec = randomWorkloads(1, 4, 7)[0];
    auto gens = instantiate(spec);
    ASSERT_EQ(gens.size(), 4u);
    for (uint8_t t = 0; t < 4; ++t)
        EXPECT_EQ(gens[t]->next().threadId, t);
}

namespace
{

/** The reference Zipf lookup: std::lower_bound over the whole CDF. */
uint64_t
fullSearch(std::span<const double> cdf, double u)
{
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return it == cdf.end() ? cdf.size() - 1
                           : static_cast<uint64_t>(it - cdf.begin());
}

/** Draws that probe every guide bucket edge from both sides, the ends
 *  of [0, 1), and 10^5 random draws. */
std::vector<double>
edgeAndRandomDraws(uint64_t n)
{
    const uint64_t k = std::bit_ceil(n);
    std::vector<double> us = {0.0, 1.0 - 0x1.0p-53};
    for (uint64_t j = 0; j <= k; ++j) {
        const double edge =
            static_cast<double>(j) / static_cast<double>(k);
        if (j < k)
            us.push_back(edge);
        us.push_back(std::nextafter(edge, 0.0));
    }
    Rng rng(n);
    for (int i = 0; i < 100'000; ++i)
        us.push_back(rng.uniform());
    return us;
}

} // namespace

TEST(ZipfSampler, GuideAndBlockLookupsMatchFullSearch)
{
    constexpr unsigned kBlock = ZipfSampler::kBlock;
    for (const uint64_t n : {1u, 3u, 1000u, 16384u, 131072u}) {
        for (const double alpha : {0.0, 0.6, 1.1}) {
            const ZipfSampler zipf(n, alpha);
            ASSERT_EQ(zipf.footprint(), n);
            ASSERT_EQ(zipf.cdf().back(), 1.0);
            const std::vector<double> us = edgeAndRandomDraws(n);
            uint64_t mismatches = 0;
            for (size_t i = 0; i < us.size(); i += kBlock) {
                std::array<double, kBlock> block{};
                std::copy(us.begin() + i,
                          us.begin() + std::min(i + kBlock, us.size()),
                          block.begin());
                std::array<uint32_t, kBlock> ranks{};
                zipf.rankBlock(block, ranks);
                for (unsigned b = 0; b < kBlock; ++b) {
                    const uint64_t want = fullSearch(zipf.cdf(), block[b]);
                    mismatches += zipf.rank(block[b]) != want;
                    mismatches += ranks[b] != want;
                }
            }
            EXPECT_EQ(mismatches, 0u) << "n=" << n << " alpha=" << alpha;
        }
    }
}

TEST(ZipfSampler, SharedTableIsOnePerKeyAndMatchesAPrivateTable)
{
    constexpr unsigned kBlock = ZipfSampler::kBlock;
    const auto table = ZipfSampler::shared(16384, 0.9);
    EXPECT_EQ(ZipfSampler::shared(16384, 0.9), table);

    // Bit for bit the table a private build gives: the CDF, and the
    // ranks rankBlock() resolves from it.
    const ZipfSampler own(16384, 0.9);
    ASSERT_EQ(table->footprint(), own.footprint());
    EXPECT_EQ(std::memcmp(table->cdf().data(), own.cdf().data(),
                          own.cdf().size_bytes()),
              0);
    const std::vector<double> us = edgeAndRandomDraws(16384);
    uint64_t mismatches = 0;
    for (size_t i = 0; i + kBlock <= us.size(); i += kBlock) {
        std::array<double, kBlock> block{};
        std::copy_n(us.begin() + i, kBlock, block.begin());
        std::array<uint32_t, kBlock> shared{}, mine{};
        table->rankBlock(block, shared);
        own.rankBlock(block, mine);
        mismatches += shared != mine;
    }
    EXPECT_EQ(mismatches, 0u);

    // Any other footprint or alpha, down to one ulp, is another table.
    EXPECT_NE(ZipfSampler::shared(16384, std::nextafter(0.9, 1.0)), table);
    EXPECT_NE(ZipfSampler::shared(16384, std::nextafter(0.9, 0.0)), table);
    EXPECT_NE(ZipfSampler::shared(16383, 0.9), table);
}

TEST(ZipfSampler, SharedBuildsOneTablePerKeyAcrossThreads)
{
    // Four threads ask for overlapping key sets at once, each in its own
    // order; every key must come back as one object.
    const std::vector<std::pair<uint64_t, double>> keys = {
        {4096, 0.6}, {4096, 0.7}, {8192, 0.6}, {8192, 0.7},
        {4096, 1.05}, {12288, 0.6}};
    constexpr unsigned kThreads = 4;
    std::vector<std::vector<const ZipfSampler *>> got(
        kThreads, std::vector<const ZipfSampler *>(keys.size(), nullptr));
    std::latch start(kThreads);
    {
        std::vector<std::jthread> threads;
        for (unsigned t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                start.arrive_and_wait();
                // Thread t skips key t and walks the rest from key t on.
                for (size_t i = 0; i < keys.size(); ++i) {
                    const size_t k = (t + i) % keys.size();
                    if (k == t)
                        continue;
                    got[t][k] =
                        ZipfSampler::shared(keys[k].first, keys[k].second)
                            .get();
                }
            });
    }
    std::set<const ZipfSampler *> distinct;
    for (size_t k = 0; k < keys.size(); ++k) {
        const ZipfSampler *table =
            ZipfSampler::shared(keys[k].first, keys[k].second).get();
        distinct.insert(table);
        for (unsigned t = 0; t < kThreads; ++t) {
            if (k != t) {
                EXPECT_EQ(got[t][k], table) << "thread " << t << " key " << k;
            }
        }
    }
    EXPECT_EQ(distinct.size(), keys.size());
}

namespace
{

constexpr uint64_t kStreamSeed = 0x51ab;
constexpr uint64_t kStreamFootprint = 5000;
constexpr double kStreamAlpha = 0.9;
constexpr uint64_t kStreamBase = uint64_t{3} << 32;
constexpr uint32_t kStreamGap = 6;
constexpr double kStreamWrites = 0.25;
constexpr uint8_t kStreamThread = 5;
/** More than three blocks, ending mid-block. */
constexpr size_t kStreamLength = 4 * TenantStreamGenerator::kBlock + 7;

/** The tenant stream built one access at a time: per access the Zipf
 *  draw, then the instruction gap, then the write coin. */
std::vector<Access>
referenceStream(const ZipfSampler &zipf, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Access> stream;
    for (size_t i = 0; i < kStreamLength; ++i) {
        const uint64_t rank = fullSearch(zipf.cdf(), rng.uniform());
        Access a;
        a.lineAddr = kStreamBase + rank;
        a.pc = hashMix64(seed ^ (rank >> 6) % 61);
        a.instrGap = 1 + static_cast<uint32_t>(rng.below(2 * kStreamGap - 1));
        a.threadId = kStreamThread;
        a.isWrite = rng.chance(kStreamWrites);
        stream.push_back(a);
    }
    return stream;
}

std::unique_ptr<TenantStreamGenerator>
makeStream(uint64_t seed)
{
    auto gen = std::make_unique<TenantStreamGenerator>(
        "t", seed, kStreamFootprint, kStreamAlpha, kStreamBase, kStreamGap,
        kStreamWrites);
    gen->setThreadId(kStreamThread);
    return gen;
}

void
expectSameAccess(const Access &got, const Access &want, size_t i)
{
    EXPECT_EQ(got.lineAddr, want.lineAddr) << "access " << i;
    EXPECT_EQ(got.pc, want.pc) << "access " << i;
    EXPECT_EQ(got.instrGap, want.instrGap) << "access " << i;
    EXPECT_EQ(got.threadId, want.threadId) << "access " << i;
    EXPECT_EQ(got.isWrite, want.isWrite) << "access " << i;
}

void
expectStream(TenantStreamGenerator &gen, const std::vector<Access> &want)
{
    for (size_t i = 0; i < want.size(); ++i)
        expectSameAccess(gen.next(), want[i], i);
}

} // namespace

TEST(TenantStream, BlockStreamMatchesOneAtATimeReference)
{
    const ZipfSampler zipf(kStreamFootprint, kStreamAlpha);
    const auto want = referenceStream(zipf, kStreamSeed);
    auto gen = makeStream(kStreamSeed);
    expectStream(*gen, want);
    // reset() rewinds mid-block to the first access.
    gen->reset();
    expectStream(*gen, want);
}

TEST(TenantStream, PeekDoesNotAdvance)
{
    const ZipfSampler zipf(kStreamFootprint, kStreamAlpha);
    const auto want = referenceStream(zipf, kStreamSeed);
    auto gen = makeStream(kStreamSeed);
    for (size_t i = 0; i < want.size(); ++i) {
        const Access first = gen->peek();
        const Access again = gen->peek();
        EXPECT_EQ(first.lineAddr, want[i].lineAddr) << "access " << i;
        EXPECT_EQ(again.lineAddr, want[i].lineAddr) << "access " << i;
        EXPECT_EQ(again.instrGap, want[i].instrGap) << "access " << i;
        expectSameAccess(gen->next(), want[i], i);
    }
}

TEST(TenantStream, SharedTableMatchesPrivateTable)
{
    // Streams of one shape draw from the registry's one table; each must
    // still match the reference over a privately built table.
    const ZipfSampler own(kStreamFootprint, kStreamAlpha);
    const auto want = referenceStream(own, kStreamSeed);
    const auto wantOther = referenceStream(own, kStreamSeed + 1);
    auto first = makeStream(kStreamSeed);
    auto again = makeStream(kStreamSeed);
    auto second = makeStream(kStreamSeed + 1);
    // Interleaved: streams drawing from one table stay independent.
    for (size_t i = 0; i < want.size(); ++i) {
        expectSameAccess(first->next(), want[i], i);
        expectSameAccess(again->next(), want[i], i);
        expectSameAccess(second->next(), wantOther[i], i);
    }
}
