/**
 * @file
 * Tests for the simulation layer: the timing model, single-core runs
 * and their metrics, the multi-core simulator, the static-PD search,
 * the stream prefetcher and the overhead model.
 */

#include <gtest/gtest.h>

#include "check/check.h"
#include "core/pdp_policy.h"
#include "hw/overhead_model.h"
#include "prefetch/stream_prefetcher.h"
#include "sim/multi_core_sim.h"
#include "sim/single_core_sim.h"
#include "sim/static_pd_search.h"
#include "sim/timing_model.h"
#include "trace/spec_suite.h"
#include "trace/workload.h"
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
    ASSERT_EQ(r.sweep.size(), 4u);
    std::vector<const SimResult *> results;
    for (const auto &[pd, result] : r.sweep)
        results.push_back(&result);
    EXPECT_EQ(r.bestPd, r.sweep[fewestMisses(results)].first);
}

TEST(StaticPdSearch, PrefetcherConfigMatchesIndependentRuns)
{
    // The search's lanes share one prefetching front-end, and each PD
    // must still see what an independent runSingleCore call would.  On
    // gcc under SPDP-NB a prefetch fill of a line the LLC already holds
    // would promote that line, so a lane that applied it would miss
    // less than the independent run.
    SimConfig config;
    config.accesses = 50000;
    config.warmup = 10000;
    config.withPrefetcher = true;
    const std::vector<uint32_t> grid = {16, 80};
    const StaticPdResult r = bestStaticPd("403.gcc", false, config, grid);
    ASSERT_EQ(r.sweep.size(), grid.size());
    std::vector<SimResult> plain;
    for (uint32_t pd : grid) {
        auto gen = SpecSuite::make("403.gcc");
        Hierarchy hierarchy = makeHierarchy(config, makeSpdpNb(pd));
        plain.push_back(runSingleCore(*gen, hierarchy, config));
        EXPECT_GT(hierarchy.llc().stats().prefetchFills, 0u);
    }
    for (size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(r.sweep[i].first, grid[i]);
        EXPECT_EQ(r.sweep[i].second.llcMisses, plain[i].llcMisses);
        EXPECT_EQ(r.sweep[i].second.llcHits, plain[i].llcHits);
        EXPECT_EQ(r.sweep[i].second.llcBypasses, plain[i].llcBypasses);
        EXPECT_EQ(r.sweep[i].second.cycles, plain[i].cycles);
    }
    EXPECT_EQ(r.bestPd,
              grid[fewestMisses({&plain[0], &plain[1]})]);
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

TEST(MultiCoreSim, RejectsAZeroLengthRun)
{
    // A run with no measured access has no IPC, so W, T and H would all
    // read 0 and pass for a result.
    WorkloadSpec spec;
    spec.benchmarks = {"403.gcc", "456.hmmer"};
    MultiCoreConfig config;
    config.cores = 2;
    config.accessesPerThread = 0;
    config.warmupPerThread = 100;
    EXPECT_THROW(runMultiCore(spec, "LRU", config), CheckFailure);
}

TEST(MultiCoreSim, RejectsAWorkloadThatIsNotTheConfiguredCoreCount)
{
    // The default config has 4 cores, so its baselines would run on an
    // 8 MB LLC while the 2-benchmark mix shares a 4 MB one.
    WorkloadSpec spec;
    spec.benchmarks = {"403.gcc", "456.hmmer"};
    MultiCoreConfig config;
    config.accessesPerThread = 1000;
    config.warmupPerThread = 100;
    ASSERT_EQ(config.cores, 4u);
    EXPECT_THROW(runMultiCore(spec, "LRU", config), CheckFailure);
}

TEST(MultiCoreSim, RejectsMoreThreadsThanThePerThreadStats)
{
    // 64 threads would read threadMisses past its kMaxThreads entries.
    const std::vector<WorkloadSpec> workloads = randomWorkloads(1, 64);
    MultiCoreConfig config;
    config.cores = 64;
    config.accessesPerThread = 1000;
    config.warmupPerThread = 100;
    EXPECT_THROW(runMultiCore(workloads[0], "LRU", config), CheckFailure);
}

TEST(MultiCoreSim, StandaloneIpcIsKeyedOnEveryFieldItsRunReads)
{
    // Same benchmark, cores and length; the warmup and the timing
    // differ, and each baseline must be its own run's IPC.
    MultiCoreConfig base;
    base.cores = 2;
    base.accessesPerThread = 40'000;
    base.warmupPerThread = 5'000;
    MultiCoreConfig longerWarmup = base;
    longerWarmup.warmupPerThread = 60'000;
    MultiCoreConfig slowerMemory = base;
    slowerMemory.timing.memLatency = 400;
    std::vector<double> ipcs;
    for (const MultiCoreConfig &config : {base, longerWarmup, slowerMemory}) {
        SimConfig single;
        single.accesses = config.accessesPerThread;
        single.warmup = config.warmupPerThread;
        single.timing = config.timing;
        single.hierarchy.llc = CacheConfig::paperLlc(config.cores);
        const SimResult fresh = runSingleCore("429.mcf", "LRU", single);
        EXPECT_EQ(standaloneIpc("429.mcf", config), fresh.ipc);
        ipcs.push_back(fresh.ipc);
    }
    // The three runs really differ, so a shared memo entry would show.
    EXPECT_NE(ipcs[0], ipcs[1]);
    EXPECT_NE(ipcs[0], ipcs[2]);
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
