/**
 * @file
 * Tests for the simulation layer: the timing model, single-core runs
 * and their metrics, the multi-core simulator, the static-PD search,
 * the stream prefetcher and the overhead model.
 */

#include <gtest/gtest.h>

#include "check/check.h"
#include "hw/overhead_model.h"
#include "prefetch/stream_prefetcher.h"
#include "sim/multi_core_sim.h"
#include "sim/single_core_sim.h"
#include "sim/static_pd_search.h"
#include "sim/timing_model.h"
#include "trace/spec_suite.h"
#include "util/rng.h"

using namespace pdp;

TEST(TimingModel, BaseIpcEqualsWidthWithoutMisses)
{
    TimingModel timing;
    for (int i = 0; i < 1000; ++i)
        timing.onAccess(40, HitLevel::L2);
    EXPECT_NEAR(timing.ipc(), 4.0, 0.01);
}

TEST(TimingModel, MissesCostCycles)
{
    TimingModel hit_model, miss_model;
    for (int i = 0; i < 1000; ++i) {
        hit_model.onAccess(40, HitLevel::L2);
        miss_model.onAccess(40, HitLevel::Memory);
    }
    EXPECT_LT(miss_model.ipc(), hit_model.ipc() * 0.5);
}

TEST(TimingModel, ClusteredMissesOverlap)
{
    // Same miss count; the clustered stream (short gaps) pays less per
    // miss thanks to memory-level parallelism.
    TimingModel clustered, isolated;
    for (int i = 0; i < 100; ++i) {
        clustered.onAccess(10, HitLevel::Memory);
        isolated.onAccess(500, HitLevel::Memory);
    }
    const uint64_t clustered_stall =
        clustered.cycles() - clustered.instructions() / 4;
    const uint64_t isolated_stall =
        isolated.cycles() - isolated.instructions() / 4;
    EXPECT_LT(clustered_stall, isolated_stall);
}

TEST(TimingModel, LlcHitCheaperThanMemory)
{
    TimingModel llc, mem;
    for (int i = 0; i < 100; ++i) {
        llc.onAccess(40, HitLevel::Llc);
        mem.onAccess(40, HitLevel::Memory);
    }
    EXPECT_GT(llc.ipc(), mem.ipc());
}

TEST(SingleCoreSim, ProducesConsistentMetrics)
{
    SimConfig config;
    config.accesses = 200000;
    config.warmup = 50000;
    const SimResult r = runSingleCore("403.gcc", "DIP", config);
    EXPECT_EQ(r.benchmark, "403.gcc");
    EXPECT_EQ(r.policy, "DIP");
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.mpki, 0.0);
    EXPECT_EQ(r.llcHits + r.llcMisses, r.llcAccesses);
    EXPECT_LE(r.llcBypasses, r.llcMisses);
}

TEST(SingleCoreSim, DeterministicAcrossRuns)
{
    SimConfig config;
    config.accesses = 100000;
    config.warmup = 20000;
    const SimResult a = runSingleCore("450.soplex", "PDP-8", config);
    const SimResult b = runSingleCore("450.soplex", "PDP-8", config);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.cycles, b.cycles);
}

TEST(SingleCoreSim, PdpBeatsLruOnThrashingBenchmark)
{
    SimConfig config;
    config.accesses = 600000;
    config.warmup = 300000;
    const SimResult lru = runSingleCore("436.cactusADM", "LRU", config);
    const SimResult pdp = runSingleCore("436.cactusADM", "PDP-8", config);
    EXPECT_LT(pdp.llcMisses, lru.llcMisses * 0.85);
    EXPECT_GT(pdp.ipc, lru.ipc);
}

TEST(StaticPdSearch, FindsTheSweetSpot)
{
    SimConfig config;
    config.accesses = 500000;
    config.warmup = 250000;
    const StaticPdResult r =
        bestStaticPd("436.cactusADM", true, config, {16, 48, 80, 160});
    EXPECT_EQ(r.bestPd, 80u);
    EXPECT_EQ(r.sweep.size(), 4u);
}

TEST(StaticPdSearch, RejectsAPrefetcherConfig)
{
    SimConfig config;
    config.accesses = 50000;
    config.warmup = 10000;
    config.withPrefetcher = true;
    EXPECT_THROW(bestStaticPd("436.cactusADM", true, config, {16, 80}),
                 CheckFailure);
}

TEST(MultiCoreSim, MetricsAreCoherent)
{
    WorkloadSpec spec;
    spec.benchmarks = {"403.gcc", "470.lbm"};
    MultiCoreConfig config;
    config.cores = 2;
    config.accessesPerThread = 120000;
    config.warmupPerThread = 40000;
    const MultiCoreResult r = runMultiCore(spec, "TA-DRRIP", config);
    ASSERT_EQ(r.threads.size(), 2u);
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_GT(r.weightedIpc, 0.0);
    EXPECT_GT(r.harmonicFairness, 0.0);
    // Weighted IPC <= N (a thread cannot beat its stand-alone run by
    // much; allow slack for timing-model noise).
    EXPECT_LT(r.weightedIpc, 2.4);
}

TEST(MultiCoreSim, SharedCacheContentionHurts)
{
    WorkloadSpec spec;
    spec.benchmarks = {"482.sphinx3", "429.mcf", "470.lbm", "433.milc"};
    MultiCoreConfig config;
    config.cores = 4;
    config.accessesPerThread = 120000;
    config.warmupPerThread = 40000;
    const MultiCoreResult r = runMultiCore(spec, "LRU", config);
    // Under contention each thread is below its stand-alone IPC.
    for (const ThreadOutcome &t : r.threads) {
        const double single = standaloneIpc(t.benchmark, config);
        EXPECT_LE(t.ipc, single * 1.05) << t.benchmark;
    }
}

TEST(MultiCoreSim, WorkloadRunIsDeterministic)
{
    WorkloadSpec spec;
    spec.benchmarks = {"403.gcc", "456.hmmer"};
    MultiCoreConfig config;
    config.cores = 2;
    config.accessesPerThread = 80000;
    config.warmupPerThread = 20000;
    const MultiCoreResult a = runMultiCore(spec, "PDP-3", config);
    const MultiCoreResult b = runMultiCore(spec, "PDP-3", config);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
}

TEST(StreamPrefetcher, DetectsAscendingStream)
{
    StreamPrefetcher prefetcher;
    std::vector<uint64_t> issued;
    for (uint64_t i = 0; i < 10; ++i) {
        const auto p = prefetcher.onDemand(1000 + i, true);
        issued.insert(issued.end(), p.begin(), p.end());
    }
    ASSERT_FALSE(issued.empty());
    // Prefetches run ahead of the demand stream.
    for (uint64_t addr : issued)
        EXPECT_GT(addr, 1000u);
}

TEST(StreamPrefetcher, IgnoresRandomTraffic)
{
    StreamPrefetcher prefetcher;
    Rng rng(9);
    uint64_t issued = 0;
    for (int i = 0; i < 1000; ++i)
        issued += prefetcher.onDemand(rng.next(), true).size();
    EXPECT_LT(issued, 50u);
}

TEST(StreamPrefetcher, DescendingStreamsWork)
{
    StreamPrefetcher prefetcher;
    bool any_below = false;
    for (uint64_t i = 0; i < 20; ++i) {
        const auto p = prefetcher.onDemand(100000 - i, true);
        for (uint64_t addr : p)
            any_below |= addr < 100000 - i;
    }
    EXPECT_TRUE(any_below);
}

TEST(OverheadModel, MatchesPaperBallpark)
{
    const OverheadModel model(CacheConfig::paperLlc());
    const double pdp2 = model.report("PDP-2").percentOfLlc;
    const double pdp3 = model.report("PDP-3").percentOfLlc;
    const double drrip = model.report("DRRIP").percentOfLlc;
    const double dip = model.report("DIP").percentOfLlc;
    // Paper Sec. 6.2: PDP-2 ~0.6%, PDP-3 ~0.8%, DRRIP ~0.4%, DIP ~0.8%.
    EXPECT_NEAR(pdp2, 0.6, 0.2);
    EXPECT_NEAR(pdp3, 0.8, 0.2);
    EXPECT_NEAR(drrip, 0.4, 0.15);
    EXPECT_NEAR(dip, 0.8, 0.25);
    EXPECT_LT(pdp2, pdp3);
}

TEST(OverheadModel, UnknownPolicyThrows)
{
    const OverheadModel model(CacheConfig::paperLlc());
    EXPECT_THROW(model.report("nope"), std::invalid_argument);
}
