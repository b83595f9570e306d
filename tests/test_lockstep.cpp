/**
 * @file
 * Tests for intra-job parallelism: the multi-config lockstep sweep
 * driver (sim/lockstep_sweep.h over the sim/llc_stream.h front-end) and
 * the runner's multi-record job fan-out (Job::runMany).  The
 * load-bearing property throughout is byte-identity: lockstep execution
 * must be invisible in the results — the same SimResult fields, the
 * same deterministic dumps — no matter how many threads did the work.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/hierarchy.h"
#include "cache/occupancy_tracker.h"
#include "cache/shard_view.h"
#include "check/check.h"
#include "core/pdp_policy.h"
#include "policies/basic.h"
#include "runner/results_sink.h"
#include "runner/suites.h"
#include "runner/thread_pool.h"
#include "sim/lockstep_sweep.h"
#include "sim/multi_core_sim.h"
#include "sim/policy_factory.h"
#include "sim/static_pd_search.h"
#include "test_support.h"
#include "trace/spec_suite.h"
#include "trace/workload.h"

using namespace pdp;
using namespace pdp::runner;

namespace
{

SimConfig
quickConfig()
{
    SimConfig config;
    config.accesses = 120'000;
    config.warmup = 30'000;
    return config;
}

/** Both runs' telemetry sections in the deterministic dump's form. */
void
expectSameTelemetry(const std::shared_ptr<const telemetry::RunTelemetry> &a,
                    const std::shared_ptr<const telemetry::RunTelemetry> &b)
{
    ASSERT_EQ(a != nullptr, b != nullptr);
    if (a) {
        EXPECT_EQ(toJson(*a, false).dump(), toJson(*b, false).dump());
    }
}

/** Every SimResult field the deterministic dump carries.  Doubles are
 *  compared exactly: both sides must run the identical arithmetic. */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.mpki, b.mpki);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.llcHits, b.llcHits);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.llcBypasses, b.llcBypasses);
    EXPECT_EQ(a.bypassFraction, b.bypassFraction);
    EXPECT_EQ(a.auditsRun, b.auditsRun);
    expectSameTelemetry(a.telemetry, b.telemetry);
}

SimResult
sequentialRun(const std::string &bench, const PolicyFactory &makePol,
              const SimConfig &config)
{
    auto gen = SpecSuite::make(bench, seedFor(bench));
    Hierarchy hierarchy = makeHierarchy(config, makePol());
    return runSingleCore(*gen, hierarchy, config);
}

/** Every MultiCoreResult field the deterministic dump carries, compared
 *  exactly like expectSameResult. */
void
expectSameMultiResult(const MultiCoreResult &a, const MultiCoreResult &b)
{
    EXPECT_EQ(a.policy, b.policy);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (size_t t = 0; t < a.threads.size(); ++t) {
        SCOPED_TRACE("thread " + std::to_string(t));
        EXPECT_EQ(a.threads[t].benchmark, b.threads[t].benchmark);
        EXPECT_EQ(a.threads[t].ipc, b.threads[t].ipc);
        EXPECT_EQ(a.threads[t].mpki, b.threads[t].mpki);
        EXPECT_EQ(a.threads[t].llcMisses, b.threads[t].llcMisses);
    }
    EXPECT_EQ(a.weightedIpc, b.weightedIpc);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.harmonicFairness, b.harmonicFairness);
    EXPECT_EQ(a.auditsRun, b.auditsRun);
    expectSameTelemetry(a.telemetry, b.telemetry);
}

/** The observed configs: traced telemetry, an invariant audit and
 *  (single-core only) the stream prefetcher. */
template <typename Config>
std::vector<std::pair<std::string, Config>>
observedConfigs(const Config &base)
{
    std::vector<std::pair<std::string, Config>> configs;
    Config traced = base;
    traced.telemetry.enabled = true;
    traced.telemetry.traceEvents = true;
    configs.emplace_back("telemetry", traced);
    Config audited = base;
    audited.auditEvery = 64;
    configs.emplace_back("audit", audited);
    if constexpr (std::is_same_v<Config, SimConfig>) {
        Config prefetching = base;
        prefetching.withPrefetcher = true;
        configs.emplace_back("prefetcher", prefetching);
    }
    return configs;
}

MultiCoreConfig
quickMultiConfig(unsigned cores)
{
    MultiCoreConfig config;
    config.cores = cores;
    config.accessesPerThread = 50'000;
    config.warmupPerThread = 15'000;
    return config;
}

const std::vector<std::string> kSharedPolicies = {"TA-DRRIP", "UCP", "PIPP",
                                                  "PDP-2", "PDP-3"};

} // namespace

// ---------------------------------------------------------------------------
// Lockstep sweep driver.

TEST(LockstepSweepTest, MatchesIndependentRuns)
{
    // fig10's policies plus LRU and non-bypassing static PDP, on
    // 450.soplex and on the writeback-heavy 470.lbm.
    std::vector<std::pair<std::string, PolicyFactory>> cells;
    for (const char *spec : {"LRU", "DIP", "DRRIP", "EELRU", "SDP",
                             "PDP-2", "PDP-3", "PDP-8"})
        cells.emplace_back(spec, [spec] { return makePolicy(spec); });
    cells.emplace_back("SPDP-NB:64", [] { return makeSpdpNb(64); });
    cells.emplace_back("SPDP-B:32", [] { return makeSpdpB(32); });
    cells.emplace_back("SPDP-B:64", [] { return makeSpdpB(64); });
    const SimConfig config = quickConfig();

    std::vector<PolicyFactory> factories;
    for (const auto &cell : cells)
        factories.push_back(cell.second);
    for (const std::string bench : {"450.soplex", "470.lbm"}) {
        auto gen = SpecSuite::make(bench, seedFor(bench));
        const std::vector<SimResult> lockstep =
            runSingleCoreLockstep(*gen, config, factories, /*threads=*/3);

        ASSERT_EQ(lockstep.size(), cells.size());
        for (size_t c = 0; c < cells.size(); ++c) {
            SCOPED_TRACE(bench + "/" + cells[c].first);
            const SimResult plain =
                sequentialRun(bench, cells[c].second, config);
            expectSameResult(lockstep[c], plain);
            EXPECT_GT(plain.llcAccesses, 0u);
        }
    }
}

TEST(LockstepSweepTest, ThreadCountDoesNotChangeResults)
{
    std::vector<PolicyFactory> factories;
    for (uint32_t pd : {16u, 64u, 256u})
        factories.push_back([pd] { return makeSpdpB(pd); });
    const SimConfig config = quickConfig();

    auto genOne = SpecSuite::make("429.mcf", seedFor("429.mcf"));
    const auto one = runSingleCoreLockstep(*genOne, config, factories, 1);
    auto genFour = SpecSuite::make("429.mcf", seedFor("429.mcf"));
    const auto four = runSingleCoreLockstep(*genFour, config, factories, 4);

    ASSERT_EQ(one.size(), four.size());
    for (size_t c = 0; c < one.size(); ++c)
        expectSameResult(one[c], four[c]);
}

TEST(LockstepSweepTest, ShardPlanStubRejectsSharding)
{
    const CacheConfig llc = CacheConfig::paperLlc();
    EXPECT_NO_THROW(ShardPlan::make(llc, 1));
    EXPECT_THROW(ShardPlan::make(llc, 2), CheckFailure);
}

TEST(LockstepSweepTest, ObservedConfigsMatchIndependentRuns)
{
    // Each lane carries its own auditor and epoch sampler, and the
    // front-end's prefetcher emits fills a lane skips when its LLC holds
    // the line, so telemetry, audits and prefetches are those of an
    // independent run.
    const std::vector<std::string> specs = {"LRU", "PDP-3", "SPDP-B:64"};
    std::vector<PolicyFactory> factories;
    for (const std::string &spec : specs)
        factories.push_back([spec] { return makePolicy(spec); });
    for (const auto &[name, config] : observedConfigs(quickConfig())) {
        auto gen = SpecSuite::make("429.mcf", seedFor("429.mcf"));
        const std::vector<SimResult> swept =
            runSingleCoreLockstep(*gen, config, factories, /*threads=*/3);
        ASSERT_EQ(swept.size(), specs.size());
        for (size_t c = 0; c < specs.size(); ++c) {
            SCOPED_TRACE(name + "/" + specs[c]);
            const SimResult plain =
                sequentialRun("429.mcf", factories[c], config);
            expectSameResult(swept[c], plain);
            EXPECT_EQ(plain.telemetry != nullptr, name == "telemetry");
            EXPECT_EQ(plain.auditsRun > 0, name == "audit");
        }
    }
}

TEST(LockstepSweepTest, PrefetchingTracedSweepsMatchIndependentRuns)
{
    // The prefetch suite's policies on every single-core benchmark, with
    // the prefetcher and traced telemetry together.  The interval
    // divides no chunk, so epochs close mid-chunk, at a different offset
    // in each chunk.
    SimConfig config;
    config.accesses = 40'000;
    config.warmup = 10'000;
    config.withPrefetcher = true;
    config.telemetry.enabled = true;
    config.telemetry.traceEvents = true;
    config.telemetry.interval = 7'777;
    std::vector<PolicyFactory> factories;
    for (const PrefetchVariant &variant : prefetchVariants())
        factories.push_back(variant.makePolicy);

    uint64_t filled = 0;
    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        std::vector<SimResult> plain;
        for (const PolicyFactory &makePol : factories) {
            auto gen = SpecSuite::make(bench, seedFor(bench));
            Hierarchy hierarchy = makeHierarchy(config, makePol());
            plain.push_back(runSingleCore(*gen, hierarchy, config));
            filled += hierarchy.llc().stats().prefetchFills;
        }
        for (unsigned threads : {1u, 4u}) {
            auto gen = SpecSuite::make(bench, seedFor(bench));
            const std::vector<SimResult> swept =
                runSingleCoreLockstep(*gen, config, factories, threads);
            ASSERT_EQ(swept.size(), plain.size());
            for (size_t c = 0; c < swept.size(); ++c) {
                SCOPED_TRACE(bench + "/" + prefetchVariants()[c].key +
                             " at " + std::to_string(threads) +
                             " lane threads");
                expectSameResult(swept[c], plain[c]);
            }
        }
    }
    // Prefetch fills reached the LLCs, so lanes had fills to skip.
    EXPECT_GT(filled, 0u);
}

// ---------------------------------------------------------------------------
// Multi-core lockstep: fig12's shared-cache policies over one decode of a
// mix.

TEST(MultiCoreLockstepTest, MatchesIndependentRuns)
{
    for (unsigned cores : {2u, 4u}) {
        const WorkloadSpec workload = randomWorkloads(1, cores, 7)[0];
        const MultiCoreConfig config = quickMultiConfig(cores);
        std::vector<MultiCoreResult> plain;
        for (const std::string &policy : kSharedPolicies)
            plain.push_back(runMultiCore(workload, policy, config));
        for (unsigned threads : {1u, 4u}) {
            const std::vector<MultiCoreResult> lockstep =
                runMultiCoreLockstep(workload, kSharedPolicies, config,
                                     threads);
            ASSERT_EQ(lockstep.size(), kSharedPolicies.size());
            for (size_t c = 0; c < lockstep.size(); ++c) {
                SCOPED_TRACE(workload.label() + "/" + kSharedPolicies[c] +
                             " at " + std::to_string(threads) +
                             " lane threads");
                expectSameMultiResult(lockstep[c], plain[c]);
                EXPECT_GT(plain[c].threads[0].llcMisses, 0u);
            }
        }
    }
}

TEST(MultiCoreLockstepTest, RejectsWhatRunMultiCoreRejects)
{
    const WorkloadSpec pair = randomWorkloads(1, 2, 7)[0];
    // A 2-benchmark mix under the default 4-core config.
    MultiCoreConfig config = quickMultiConfig(2);
    config.cores = 4;
    EXPECT_THROW(runMultiCoreLockstep(pair, {"LRU"}, config), CheckFailure);
    // No measured access.
    config = quickMultiConfig(2);
    config.accessesPerThread = 0;
    EXPECT_THROW(runMultiCoreLockstep(pair, {"LRU"}, config), CheckFailure);
    // More threads than CacheStats keeps per-thread counters for.
    config = quickMultiConfig(64);
    EXPECT_THROW(runMultiCoreLockstep(randomWorkloads(1, 64, 7)[0],
                                      {"LRU"}, config),
                 CheckFailure);
    // The engine itself needs a generator to serve.
    EXPECT_THROW(runLockstepLanes({}, quickConfig(),
                                  {[] { return makePolicy("LRU"); }}, 1),
                 CheckFailure);
}

TEST(MultiCoreLockstepTest, ObservedConfigsMatchIndependentRuns)
{
    const WorkloadSpec workload = randomWorkloads(1, 2, 7)[0];
    for (const auto &[name, config] : observedConfigs(quickMultiConfig(2))) {
        const std::vector<MultiCoreResult> swept =
            runMultiCoreLockstep(workload, kSharedPolicies, config, 4);
        ASSERT_EQ(swept.size(), kSharedPolicies.size());
        for (size_t c = 0; c < swept.size(); ++c) {
            SCOPED_TRACE(name + "/" + kSharedPolicies[c]);
            const MultiCoreResult plain =
                runMultiCore(workload, kSharedPolicies[c], config);
            expectSameMultiResult(swept[c], plain);
            EXPECT_EQ(plain.telemetry != nullptr, name == "telemetry");
            EXPECT_EQ(plain.auditsRun > 0, name == "audit");
        }
    }
}

// ---------------------------------------------------------------------------
// Runner fan-out: Job::runMany.

TEST(ThreadPoolExecutorMany, FlattensGroupsInInputOrder)
{
    std::vector<Job> jobs;
    Job before;
    before.key = "a/before";
    before.seed = seedFor(before.key);
    before.run = [](const JobContext &) { return JobOutcome{}; };
    jobs.push_back(std::move(before));

    Job group;
    group.key = "b/group";
    group.seed = seedFor(group.key);
    group.runMany = [](const JobContext &) {
        std::vector<KeyedOutcome> outcomes(3);
        for (int c = 0; c < 3; ++c) {
            outcomes[c].key = "b/cell" + std::to_string(c);
            outcomes[c].outcome.metrics["cell"] = c;
        }
        return outcomes;
    };
    jobs.push_back(std::move(group));

    Job after;
    after.key = "c/after";
    after.seed = seedFor(after.key);
    after.run = [](const JobContext &) { return JobOutcome{}; };
    jobs.push_back(std::move(after));

    const auto records = ThreadPoolExecutor().run(jobs);
    ASSERT_EQ(records.size(), 5u);
    EXPECT_EQ(records[0].key, "a/before");
    EXPECT_EQ(records[1].key, "b/cell0");
    EXPECT_EQ(records[2].key, "b/cell1");
    EXPECT_EQ(records[3].key, "b/cell2");
    EXPECT_EQ(records[4].key, "c/after");
    for (const JobRecord &record : records)
        EXPECT_EQ(record.status, JobStatus::Ok);
    // Expanded records inherit the group's seed.
    EXPECT_EQ(records[1].seed, seedFor("b/group"));
    EXPECT_EQ(records[1].outcome.metrics.at("cell"), 0.0);
    EXPECT_EQ(records[3].outcome.metrics.at("cell"), 2.0);
}

TEST(ThreadPoolExecutorMany, ThrowingGroupBecomesOneFailedRecord)
{
    Job job;
    job.key = "boom";
    job.seed = seedFor(job.key);
    job.runMany = [](const JobContext &) -> std::vector<KeyedOutcome> {
        throw std::runtime_error("injected group failure");
    };
    const auto records = ThreadPoolExecutor().run({job});
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].key, "boom");
    EXPECT_EQ(records[0].status, JobStatus::Failed);
    EXPECT_NE(records[0].error.find("injected group failure"),
              std::string::npos);
}

TEST(ThreadPoolExecutorMany, SettingBothCallablesIsAFailure)
{
    Job job;
    job.key = "both";
    job.run = [](const JobContext &) { return JobOutcome{}; };
    job.runMany = [](const JobContext &) {
        return std::vector<KeyedOutcome>(1);
    };
    const auto records = ThreadPoolExecutor().run({job});
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].status, JobStatus::Failed);
}

TEST(ThreadPoolExecutorMany, EmptyGroupIsAFailure)
{
    Job job;
    job.key = "empty";
    job.runMany = [](const JobContext &) {
        return std::vector<KeyedOutcome>();
    };
    const auto records = ThreadPoolExecutor().run({job});
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].status, JobStatus::Failed);
}

// ---------------------------------------------------------------------------
// Suite-level byte-identity: selectJobs folds adjacent single-core cells
// into lockstep sweeps, and the records must not show it.

namespace
{

/** The suite's grid narrowed by `filter`, each cell one sequential
 *  run (sequentialJob). */
std::vector<Job>
ungroupedJobs(const Suite &suite, const SuiteOptions &options)
{
    std::vector<Job> jobs = suite.buildJobs(options);
    std::erase_if(jobs, [&](const Job &job) {
        return job.key.find(options.filter) == std::string::npos;
    });
    return sequentialJobs(jobs);
}

struct SuiteRun
{
    std::vector<std::string> keys;
    std::string dump;
    /** The deterministic TRACE file's text. */
    std::string trace;
};

/** Runs `jobs` on two workers; the TRACE file goes to a fresh TempDir
 *  subdirectory named after the running test and `tag`. */
SuiteRun
runJobs(const std::string &suiteName, const std::vector<Job> &jobs,
        const std::string &tag)
{
    ResultsSink sink(suiteName);
    sink.setDeterministicFile(true);
    ExecutorOptions eopts;
    eopts.workers = 2;
    SuiteRun run;
    for (JobRecord &record : ThreadPoolExecutor(eopts).run(jobs)) {
        EXPECT_EQ(record.status, JobStatus::Ok) << record.key;
        run.keys.push_back(record.key);
        sink.add(std::move(record));
    }
    run.dump = sink.toJson(/*includeVolatile=*/false).dump(2);

    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        (std::string("lockstep_") +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + tag);
    std::filesystem::create_directories(dir);
    std::string path;
    EXPECT_TRUE(sink.writeTraceFile(dir.string(), &path));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    run.trace = text.str();
    return run;
}

/** Runs the suite grouped and ungrouped, expects the same records in
 *  the same order and the same BENCH and TRACE text, and returns the
 *  grouped job list. */
std::vector<Job>
expectGroupingInvisible(const std::string &suiteName,
                        const SuiteOptions &options)
{
    const Suite *suite = findSuite(suiteName);
    EXPECT_NE(suite, nullptr);
    if (!suite)
        return {};
    const std::vector<Job> grouped = selectJobs(*suite, options);
    const std::vector<Job> cells = ungroupedJobs(*suite, options);
    EXPECT_LT(grouped.size(), cells.size());
    const SuiteRun a = runJobs(suiteName, grouped, "grouped");
    const SuiteRun b = runJobs(suiteName, cells, "cells");
    EXPECT_EQ(a.keys, b.keys);
    expectSameText(a.dump, b.dump, "BENCH dumps");
    expectSameText(a.trace, b.trace, "TRACE files");
    EXPECT_NE(a.dump.find("\"llc_misses\""), std::string::npos);
    if (options.trace) {
        EXPECT_NE(a.trace.find("\"type\":\"epoch\""), std::string::npos);
    }
    return grouped;
}


SuiteOptions
quickSuite(std::string filter = "")
{
    SuiteOptions options;
    options.scale = 0.02;
    options.filter = std::move(filter);
    return options;
}

/** quickSuite(filter) with traced telemetry. */
SuiteOptions
tracedSuite(std::string filter)
{
    SuiteOptions options = quickSuite(std::move(filter));
    options.telemetry = true;
    options.trace = true;
    return options;
}

/** LRU that throws on its `limit`-th victim pick, naming its lane. */
class ThrowingLru : public LruPolicy
{
  public:
    ThrowingLru(uint64_t limit, std::string lane)
        : limit_(limit), lane_(std::move(lane))
    {}

    int
    selectVictim(const AccessContext &ctx) override
    {
        if (++picks_ == limit_)
            throw std::runtime_error("lane " + lane_ + " gave up after " +
                                     std::to_string(limit_) +
                                     " victim picks");
        return LruPolicy::selectVictim(ctx);
    }

  private:
    uint64_t limit_;
    uint64_t picks_ = 0;
    std::string lane_;
};

/** Four cells of one sweep; lanes 1 and 3 throw at the same op. */
std::vector<Job>
throwingCells()
{
    const SimConfig config = quickConfig();
    std::vector<Job> jobs;
    for (int lane = 0; lane < 4; ++lane) {
        const std::string name = std::to_string(lane);
        PolicyFactory make = [] { return makePolicy("LRU"); };
        if (lane % 2 == 1)
            make = [name] {
                return std::make_unique<ThrowingLru>(1000, name);
            };
        jobs.push_back(
            singleCoreJob("probe/429.mcf/" + name, "429.mcf", make, config));
    }
    return jobs;
}

} // namespace

TEST(SuiteLockstepTest, Fig4GroupedDumpMatchesUngrouped)
{
    const std::vector<Job> grouped = expectGroupingInvisible(
        "fig4_static_pdp", quickSuite("fig4/429.mcf/"));
    EXPECT_EQ(grouped.size(), 1u);
}

TEST(SuiteLockstepTest, Fig12GroupedDumpMatchesUngrouped)
{
    SuiteOptions options = quickSuite();
    options.scale = 0.003;
    const std::vector<Job> grouped =
        expectGroupingInvisible("fig12_partitioning", options);
    // 2 core counts x 8 mixes, each mix's five policies one sweep.
    ASSERT_EQ(grouped.size(), 16u);
    EXPECT_EQ(grouped[0].key,
              "fig12/4c/w0/TA-DRRIP..fig12/4c/w0/PDP-3");
    EXPECT_EQ(grouped[15].key,
              "fig12/16c/w7/TA-DRRIP..fig12/16c/w7/PDP-3");
    for (const Job &job : grouped)
        EXPECT_TRUE(job.runMany != nullptr) << job.key;
}

TEST(SuiteLockstepTest, Fig12OneCellFilterIsOnePlainJob)
{
    // A lone cell is a one-lane sweep under the cell's own key, so its
    // record, a failure's record and a FLIGHT file name keep that key.
    const Suite *suite = findSuite("fig12_partitioning");
    ASSERT_NE(suite, nullptr);
    const std::vector<Job> jobs =
        selectJobs(*suite, quickSuite("fig12/4c/w0/UCP"));
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].key, "fig12/4c/w0/UCP");
    EXPECT_TRUE(jobs[0].run == nullptr);
    EXPECT_TRUE(jobs[0].runMany != nullptr);
    const auto records = ThreadPoolExecutor().run(jobs);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].key, "fig12/4c/w0/UCP");
    EXPECT_EQ(records[0].status, JobStatus::Ok);
    ASSERT_TRUE(records[0].outcome.multi.has_value());
    EXPECT_EQ(records[0].outcome.multi->policy, "UCP");
}

TEST(SuiteLockstepTest, SmokeGroupedDumpMatchesUngrouped)
{
    const std::vector<Job> grouped =
        expectGroupingInvisible("smoke", quickSuite());
    // soplex {DIP, PDP-3}, cactusADM {DRRIP, PDP-3, SPDP-B:64}, soplex
    // {SPDP-B:32, :64, :128}: the two soplex stretches are not adjacent,
    // so they stay two sweeps.  The 2-core cell is alone, so it is a
    // one-lane job under its own key.
    std::vector<std::string> keys;
    for (const Job &job : grouped)
        keys.push_back(job.key);
    EXPECT_EQ(keys, (std::vector<std::string>{
                        "smoke/450.soplex/DIP..smoke/450.soplex/PDP-3",
                        "smoke/436.cactusADM/DRRIP.."
                        "smoke/436.cactusADM/SPDP-B:64",
                        "smoke/450.soplex/SPDP-B:32.."
                        "smoke/450.soplex/SPDP-B:128",
                        "smoke/multi/w0/PDP-2",
                    }));
}

TEST(SuiteLockstepTest, OneCellFilterYieldsOneRecord)
{
    const Suite *suite = findSuite("fig4_static_pdp");
    ASSERT_NE(suite, nullptr);
    const std::vector<Job> jobs =
        selectJobs(*suite, quickSuite("fig4/429.mcf/SPDP-B:64"));
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].key, "fig4/429.mcf/SPDP-B:64");
    const auto records = ThreadPoolExecutor().run(jobs);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].status, JobStatus::Ok);
    ASSERT_TRUE(records[0].outcome.single.has_value());
    EXPECT_EQ(records[0].outcome.single->policy, "SPDP-B");
}

TEST(SuiteLockstepTest, Fig4TracedGroupedDumpMatchesUngrouped)
{
    // Observed cells fold like any other: each lane samples its own
    // epochs and records its own events.
    const std::vector<Job> grouped = expectGroupingInvisible(
        "fig4_static_pdp", tracedSuite("fig4/429.mcf/"));
    EXPECT_EQ(grouped.size(), 1u);
}

TEST(SuiteLockstepTest, Fig12TracedGroupedDumpMatchesUngrouped)
{
    const std::vector<Job> grouped = expectGroupingInvisible(
        "fig12_partitioning", tracedSuite("fig12/4c/w0/"));
    ASSERT_EQ(grouped.size(), 1u);
    EXPECT_EQ(grouped[0].key, "fig12/4c/w0/TA-DRRIP..fig12/4c/w0/PDP-3");
    EXPECT_TRUE(grouped[0].runMany != nullptr);
}

TEST(SuiteLockstepTest, PrefetchTracedGroupedDumpMatchesUngrouped)
{
    // Each cell's probe reads its own lane's prefetch fills.
    SuiteOptions options = tracedSuite("");
    options.scale = 0.01;
    const std::vector<Job> grouped =
        expectGroupingInvisible("prefetch", options);
    const std::vector<std::string> benches = SpecSuite::singleCoreNames();
    ASSERT_EQ(grouped.size(), benches.size());
    for (size_t b = 0; b < benches.size(); ++b)
        EXPECT_EQ(grouped[b].key, "prefetch/" + benches[b] +
                                      "/DRRIP..prefetch/" + benches[b] +
                                      "/PDP-8:pf-bypass");
}

TEST(SuiteLockstepTest, Fig11TracedGroupedDumpMatchesUngrouped)
{
    // PDP-8's PD-history probe rides its benchmark's sweep.
    SuiteOptions options = tracedSuite("");
    options.scale = 0.01;
    const std::vector<Job> grouped =
        expectGroupingInvisible("fig11_phases", options);
    const std::vector<std::string> benches = SpecSuite::phasedNames();
    ASSERT_EQ(grouped.size(), benches.size());
    for (size_t b = 0; b < benches.size(); ++b)
        EXPECT_EQ(grouped[b].key, "fig11/" + benches[b] +
                                      "/interval:256K..fig11/" +
                                      benches[b] + "/PDP-8");
}

TEST(SuiteLockstepTest, Fig5aSpdpRowsMatchSequentialGridSearch)
{
    // A SPDP row runs its PD grid as one sweep with a tracker on every
    // lane.  The reference runs each grid PD on runSingleCore with its
    // own OccupancyTracker and picks the row by fewestMisses.
    const Suite *suite = findSuite("fig5a_occupancy");
    ASSERT_NE(suite, nullptr);
    SuiteOptions options = tracedSuite("/SPDP-");
    options.scale = 0.01;
    const std::vector<Job> jobs = selectJobs(*suite, options);
    ASSERT_EQ(jobs.size(), 4u);
    const SimConfig config = scaledConfig(options, 2'000'000, 800'000);
    const std::vector<uint32_t> grid = defaultPdGrid();
    for (const JobRecord &record : ThreadPoolExecutor().run(jobs)) {
        SCOPED_TRACE(record.key);
        ASSERT_EQ(record.status, JobStatus::Ok) << record.error;
        const std::string bench =
            record.key.substr(6, record.key.rfind('/') - 6);
        const bool bypass = record.key.ends_with("/SPDP-B");
        std::vector<SimResult> plain;
        std::vector<OccupancyBreakdown> breakdowns;
        for (uint32_t pd : grid) {
            auto gen = SpecSuite::make(bench, seedFor(bench));
            Hierarchy hierarchy = makeHierarchy(
                config, bypass ? makeSpdpB(pd) : makeSpdpNb(pd));
            OccupancyTracker tracker(hierarchy.llc());
            hierarchy.llc().setObserver(&tracker);
            plain.push_back(runSingleCore(*gen, hierarchy, config));
            breakdowns.push_back(tracker.breakdown());
        }
        std::vector<const SimResult *> results;
        for (const SimResult &result : plain)
            results.push_back(&result);
        const size_t best = fewestMisses(results);

        const Metrics &m = record.outcome.metrics;
        EXPECT_EQ(m.at("pd"), grid[best]);
        ASSERT_TRUE(record.outcome.single.has_value());
        expectSameResult(*record.outcome.single, plain[best]);
        const OccupancyBreakdown &b = breakdowns[best];
        const auto share = [](uint64_t part, uint64_t total) {
            return static_cast<double>(part) / static_cast<double>(total);
        };
        EXPECT_EQ(m.at("acc:hit"), share(b.hits, b.totalEvents()));
        EXPECT_EQ(m.at("acc:bypass"), share(b.bypasses, b.totalEvents()));
        EXPECT_EQ(m.at("acc:evict<=16"),
                  share(b.evictsShort, b.totalEvents()));
        EXPECT_EQ(m.at("acc:evict>16"), share(b.evictsLong, b.totalEvents()));
        EXPECT_EQ(m.at("occ:hit"),
                  share(b.occupancyHits, b.totalOccupancy()));
        EXPECT_EQ(m.at("occ:evict<=16"),
                  share(b.occupancyShort, b.totalOccupancy()));
        EXPECT_EQ(m.at("occ:evict>16"),
                  share(b.occupancyLong, b.totalOccupancy()));
        EXPECT_EQ(m.at("max occupancy"),
                  static_cast<double>(b.maxOccupancy));
    }
}

TEST(SuiteLockstepTest, LaneExceptionIsTheSameAtAnyThreadCount)
{
    const std::vector<Job> cells = throwingCells();
    Suite probe{"probe", "", [&cells](const SuiteOptions &) { return cells; },
                nullptr};
    const std::vector<Job> jobs = selectJobs(probe, SuiteOptions{});
    ASSERT_EQ(jobs.size(), 1u);

    std::vector<std::string> errors;
    for (unsigned threads : {1u, 4u}) {
        JobContext ctx;
        ctx.seed = jobs[0].seed;
        ctx.laneThreads = threads;
        try {
            jobs[0].runMany(ctx);
            ADD_FAILURE() << "no lane threw at " << threads << " threads";
        } catch (const std::runtime_error &e) {
            errors.push_back(e.what());
        }
    }
    ASSERT_EQ(errors.size(), 2u);
    EXPECT_EQ(errors[0], "lane 1 gave up after 1000 victim picks");
    EXPECT_EQ(errors[1], errors[0]);

    const auto records = ThreadPoolExecutor().run(jobs);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].key, "probe/429.mcf/0..probe/429.mcf/3");
    EXPECT_EQ(records[0].status, JobStatus::Failed);
    EXPECT_EQ(records[0].error, errors[0]);

    // The multi-core case: four lanes over a 4-core mix on the same
    // engine, lanes 1 and 3 throwing at the same op.
    const WorkloadSpec workload = randomWorkloads(1, 4, 7)[0];
    SimConfig run = quickConfig();
    run.hierarchy.numThreads = 4;
    run.hierarchy.llc = CacheConfig::paperLlc(4);
    std::vector<PolicyFactory> factories;
    for (int lane = 0; lane < 4; ++lane) {
        const std::string name = std::to_string(lane);
        factories.push_back(
            [lane, name]() -> std::unique_ptr<ReplacementPolicy> {
                if (lane % 2 == 1)
                    return std::make_unique<ThrowingLru>(1000, name);
                return std::make_unique<LruPolicy>();
            });
    }
    for (unsigned threads : {1u, 4u}) {
        const std::vector<GeneratorPtr> generators = instantiate(workload);
        std::vector<AccessGenerator *> gens;
        for (const GeneratorPtr &gen : generators)
            gens.push_back(gen.get());
        try {
            runLockstepLanes(gens, run, factories, threads);
            ADD_FAILURE() << "no multi-core lane threw at " << threads
                          << " threads";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "lane 1 gave up after 1000 victim picks")
                << threads << " threads";
        }
    }
}
