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

#include <stdexcept>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "cache/shard_view.h"
#include "check/check.h"
#include "core/pdp_policy.h"
#include "policies/basic.h"
#include "runner/results_sink.h"
#include "runner/suites.h"
#include "runner/thread_pool.h"
#include "sim/lockstep_sweep.h"
#include "sim/policy_factory.h"
#include "trace/spec_suite.h"

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
    EXPECT_EQ(a.auditViolations, b.auditViolations);
}

SimResult
sequentialRun(const std::string &bench, const PolicyFactory &makePol,
              const SimConfig &config)
{
    auto gen = SpecSuite::make(bench, seedFor(bench));
    Hierarchy hierarchy(config.hierarchy, makePol());
    return runSingleCore(*gen, hierarchy, config);
}

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

TEST(LockstepSweepTest, RejectsGlobalOrderObservers)
{
    std::vector<PolicyFactory> factories = {[] { return makePolicy("LRU"); }};
    SimConfig config = quickConfig();
    config.telemetry.enabled = true;
    auto gen = SpecSuite::make("429.mcf", seedFor("429.mcf"));
    EXPECT_THROW(runSingleCoreLockstep(*gen, config, factories),
                 std::exception);
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

/** The suite's grid narrowed by `filter`, one job per cell. */
std::vector<Job>
ungroupedJobs(const Suite &suite, const SuiteOptions &options)
{
    std::vector<Job> jobs = suite.buildJobs(options);
    std::erase_if(jobs, [&](const Job &job) {
        return job.key.find(options.filter) == std::string::npos;
    });
    return jobs;
}

struct SuiteRun
{
    std::vector<std::string> keys;
    std::string dump;
};

SuiteRun
runJobs(const std::string &suiteName, const std::vector<Job> &jobs)
{
    ResultsSink sink(suiteName);
    ExecutorOptions eopts;
    eopts.workers = 2;
    eopts.onComplete = [&sink](const JobRecord &r) { sink.add(r); };
    SuiteRun run;
    for (const JobRecord &record : ThreadPoolExecutor(eopts).run(jobs)) {
        EXPECT_EQ(record.status, JobStatus::Ok) << record.key;
        run.keys.push_back(record.key);
    }
    run.dump = sink.toJson(/*includeVolatile=*/false).dump(2);
    return run;
}

/** Runs the suite grouped and ungrouped, expects the same records in
 *  the same order, and returns the grouped job list. */
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
    const SuiteRun a = runJobs(suiteName, grouped);
    const SuiteRun b = runJobs(suiteName, cells);
    EXPECT_EQ(a.keys, b.keys);
    EXPECT_EQ(a.dump, b.dump);
    EXPECT_NE(a.dump.find("\"llc_misses\""), std::string::npos);
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

TEST(SuiteLockstepTest, SmokeGroupedDumpMatchesUngrouped)
{
    SuiteOptions options = quickSuite();
    options.timeoutSeconds = 1000.0;
    const std::vector<Job> grouped =
        expectGroupingInvisible("smoke", options);
    // soplex {DIP, PDP-3}, cactusADM {DRRIP, PDP-3, SPDP-B:64}, soplex
    // {SPDP-B:32, :64, :128}: the two soplex stretches are not adjacent,
    // so they stay two sweeps.  The 2-core job is no cell.
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
    // Each cell keeps its own soft --timeout budget inside a sweep.
    EXPECT_EQ(grouped[0].timeoutSeconds, 2000.0);
    EXPECT_EQ(grouped[1].timeoutSeconds, 3000.0);
    EXPECT_EQ(grouped[3].timeoutSeconds, 0.0);
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

TEST(SuiteLockstepTest, TelemetryConfigIsNeverGrouped)
{
    const Suite *suite = findSuite("fig4_static_pdp");
    ASSERT_NE(suite, nullptr);
    SuiteOptions options = quickSuite("fig4/429.mcf/");
    options.telemetry = true;
    const std::vector<Job> jobs = selectJobs(*suite, options);
    EXPECT_EQ(jobs.size(), ungroupedJobs(*suite, options).size());
    for (const Job &job : jobs) {
        EXPECT_TRUE(job.cell.has_value()) << job.key;
        EXPECT_TRUE(job.run != nullptr) << job.key;
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
}
