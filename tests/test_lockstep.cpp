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
// Suite-level byte-identity: lockstep grids dump the same documents.

namespace
{

std::string
suiteDump(const std::string &suiteName, const SuiteOptions &options)
{
    const Suite *suite = findSuite(suiteName);
    EXPECT_NE(suite, nullptr);
    const std::vector<Job> jobs = selectJobs(*suite, options);
    EXPECT_FALSE(jobs.empty());
    ResultsSink sink(suiteName);
    ExecutorOptions eopts;
    eopts.workers = 2;
    eopts.onComplete = [&sink](const JobRecord &r) { sink.add(r); };
    ThreadPoolExecutor(eopts).run(jobs);
    return sink.toJson(/*includeVolatile=*/false).dump(2);
}

} // namespace

TEST(SuiteLockstepTest, Fig4LockstepDumpMatchesIndependent)
{
    SuiteOptions independent;
    independent.scale = 0.02;
    independent.filter = "fig4/429.mcf/";
    SuiteOptions lockstep = independent;
    lockstep.lockstep = true;

    const std::string a = suiteDump("fig4_static_pdp", independent);
    const std::string b = suiteDump("fig4_static_pdp", lockstep);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"llc_misses\""), std::string::npos);
}
