/**
 * @file
 * Tests for the telemetry subsystem (src/telemetry/): the bounded event
 * ring, epoch sampling end-to-end through
 * the single- and multi-core simulators, event derivation, and the
 * guarantee that sampling never perturbs simulation results.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/multi_core_sim.h"
#include "sim/single_core_sim.h"
#include "telemetry/epoch_sampler.h"
#include "telemetry/event_trace.h"
#include "telemetry/source.h"
#include "trace/spec_suite.h"

using namespace pdp;
using namespace pdp::telemetry;

TEST(Snapshot, SetReplacesExistingNames)
{
    Snapshot snap;
    snap.setScalar("pd", 64.0);
    snap.setScalar("pd", 72.0);
    snap.setSeries("rdd", {1.0});
    snap.setSeries("rdd", {2.0, 3.0});
    ASSERT_EQ(snap.scalars.size(), 1u);
    EXPECT_EQ(*snap.scalar("pd"), 72.0);
    ASSERT_EQ(snap.series.size(), 1u);
    EXPECT_EQ(snap.findSeries("rdd")->size(), 2u);
    EXPECT_EQ(snap.scalar("absent"), nullptr);
    EXPECT_EQ(snap.findSeries("absent"), nullptr);
}

TEST(EventTrace, RingDropsOldestAndCounts)
{
    EventTrace trace(4);
    for (int i = 0; i < 7; ++i) {
        TraceEvent event;
        event.type = "e";
        event.accessCount = static_cast<uint64_t>(i);
        trace.record(std::move(event));
    }
    EXPECT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace.capacity(), 4u);
    EXPECT_EQ(trace.dropped(), 3u);
    const auto events = trace.chronological();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().accessCount, 3u); // oldest three were dropped
    EXPECT_EQ(events.back().accessCount, 6u);
}

TEST(EventTrace, ScopedPhaseTimerRecordsVolatileEvent)
{
    EventTrace trace;
    {
        ScopedPhaseTimer timer(&trace, "warmup", 42);
    }
    ASSERT_EQ(trace.size(), 1u);
    const auto events = trace.chronological();
    EXPECT_EQ(events[0].type, "phase:warmup");
    EXPECT_TRUE(events[0].isVolatile);
    EXPECT_EQ(events[0].accessCount, 42u);
    ASSERT_EQ(events[0].fields.size(), 1u);
    EXPECT_EQ(events[0].fields[0].first, "seconds");
    EXPECT_GE(events[0].fields[0].second, 0.0);

    // A null trace makes the timer a no-op.
    ScopedPhaseTimer noop(nullptr, "ignored");
}

namespace
{

SimConfig
smallTelemetryConfig(bool trace_events)
{
    SimConfig config;
    config.accesses = 64'000;
    config.warmup = 16'000;
    config.telemetry.enabled = true;
    config.telemetry.traceEvents = trace_events;
    config.telemetry.interval = 8'000;
    return config;
}

} // namespace

TEST(EpochSampler, SingleCorePdpRunProducesEpochSeries)
{
    const SimResult result =
        runSingleCore("450.soplex", "PDP-3", smallTelemetryConfig(false));
    ASSERT_NE(result.telemetry, nullptr);
    const RunTelemetry &run = *result.telemetry;
    EXPECT_EQ(run.interval, 8'000u);
    ASSERT_EQ(run.epochs.size(), 8u); // 64k accesses / 8k interval
    EXPECT_TRUE(run.events.empty());  // traceEvents off

    uint64_t accesses = 0, hits = 0, misses = 0, bypasses = 0;
    for (size_t i = 0; i < run.epochs.size(); ++i) {
        const EpochRecord &epoch = run.epochs[i];
        EXPECT_EQ(epoch.epoch, i);
        // The PDP source exports its PD and RD counter-array.
        const double *pd = epoch.policy.scalar("pd");
        ASSERT_NE(pd, nullptr);
        EXPECT_GT(*pd, 0.0);
        EXPECT_NE(epoch.policy.findSeries("rdd"), nullptr);
        ASSERT_EQ(epoch.threadOccupancy.size(), 1u);
        accesses += epoch.intervalAccesses;
        hits += epoch.intervalHits;
        misses += epoch.intervalMisses;
        bypasses += epoch.intervalBypasses;
    }
    // Interval deltas tile the measured run exactly.
    EXPECT_EQ(accesses, result.llcAccesses);
    EXPECT_EQ(hits, result.llcHits);
    EXPECT_EQ(misses, result.llcMisses);
    EXPECT_EQ(bypasses, result.llcBypasses);
}

TEST(EpochSampler, SamplingDoesNotPerturbResults)
{
    SimConfig off = smallTelemetryConfig(false);
    off.telemetry = TelemetryConfig{};
    const SimResult plain = runSingleCore("429.mcf", "PDP-2", off);
    const SimResult sampled =
        runSingleCore("429.mcf", "PDP-2", smallTelemetryConfig(true));

    EXPECT_EQ(plain.llcAccesses, sampled.llcAccesses);
    EXPECT_EQ(plain.llcHits, sampled.llcHits);
    EXPECT_EQ(plain.llcMisses, sampled.llcMisses);
    EXPECT_EQ(plain.llcBypasses, sampled.llcBypasses);
    EXPECT_EQ(plain.instructions, sampled.instructions);
    EXPECT_EQ(plain.cycles, sampled.cycles);
    EXPECT_EQ(plain.telemetry, nullptr);
    EXPECT_NE(sampled.telemetry, nullptr);
}

TEST(EpochSampler, TraceEventsIncludeEpochRolloversAndPhases)
{
    const SimResult result =
        runSingleCore("450.soplex", "PDP-3", smallTelemetryConfig(true));
    ASSERT_NE(result.telemetry, nullptr);
    const RunTelemetry &run = *result.telemetry;
    ASSERT_FALSE(run.events.empty());

    std::set<std::string> types;
    for (const TraceEvent &event : run.events)
        types.insert(event.type);
    EXPECT_TRUE(types.count("epoch"));
    // Phase timers bracket warmup and the measured loop.
    EXPECT_TRUE(types.count("phase:warmup"));
    EXPECT_TRUE(types.count("phase:measure"));
}

TEST(EpochSampler, DipRunExportsPselScalar)
{
    const SimResult result =
        runSingleCore("450.soplex", "DIP", smallTelemetryConfig(false));
    ASSERT_NE(result.telemetry, nullptr);
    ASSERT_FALSE(result.telemetry->epochs.empty());
    const Snapshot &policy = result.telemetry->epochs.back().policy;
    ASSERT_NE(policy.scalar("psel"), nullptr);
    ASSERT_NE(policy.scalar("psel_max"), nullptr);
    EXPECT_GT(*policy.scalar("psel_max"), 0.0);
}

TEST(EpochSampler, AutoIntervalKeepsAtLeastSixteenEpochsWhenScaled)
{
    SimConfig config = smallTelemetryConfig(false);
    config.accesses = 150'000; // scaled-CI-sized run
    config.telemetry.interval = 0;
    const SimResult result = runSingleCore("429.mcf", "PDP-3", config);
    ASSERT_NE(result.telemetry, nullptr);
    EXPECT_GE(result.telemetry->epochs.size(), 16u);
    EXPECT_GE(result.telemetry->interval, 4'096u);
}

TEST(EpochSampler, MultiCorePartitionRunExportsPerThreadSeries)
{
    const auto names = SpecSuite::multiCoreNames();
    WorkloadSpec workload;
    workload.benchmarks = {names.at(0), names.at(1)};

    MultiCoreConfig config;
    config.cores = 2;
    config.accessesPerThread = 40'000;
    config.warmupPerThread = 10'000;
    config.telemetry.enabled = true;
    config.telemetry.interval = 20'000;

    const MultiCoreResult result =
        runMultiCore(workload, "PDP-3", config);
    ASSERT_NE(result.telemetry, nullptr);
    ASSERT_FALSE(result.telemetry->epochs.empty());

    const EpochRecord &last = result.telemetry->epochs.back();
    ASSERT_EQ(last.threadOccupancy.size(), 2u);
    const std::vector<double> *pds = last.policy.findSeries("thread_pds");
    ASSERT_NE(pds, nullptr);
    EXPECT_EQ(pds->size(), 2u);
}

TEST(EpochSampler, MaxEpochsKeepsNewestAndCountsDropped)
{
    SimConfig config = smallTelemetryConfig(false);
    config.telemetry.interval = 4'000;
    config.telemetry.maxEpochs = 4;
    const SimResult result =
        runSingleCore("450.soplex", "LRU", config);
    ASSERT_NE(result.telemetry, nullptr);
    const RunTelemetry &run = *result.telemetry;
    EXPECT_EQ(run.epochs.size(), 4u);
    EXPECT_EQ(run.epochsDropped, 12u); // 16 sampled, newest 4 kept
    EXPECT_EQ(run.epochs.back().epoch, 15u);
}
