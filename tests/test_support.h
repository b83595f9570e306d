/**
 * @file
 * Helpers more than one test file shares: a compare for long texts that
 * names the first differing line, and the sequential reference of a
 * suite's simulation cells, which the runner itself never runs (it runs
 * every cell on the lane engine).
 */

#ifndef PDP_TESTS_TEST_SUPPORT_H
#define PDP_TESTS_TEST_SUPPORT_H

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "runner/job.h"
#include "trace/spec_suite.h"

/** EXPECT_EQ for long texts (whole BENCH or TRACE dumps) that names the
 *  first line where they differ.  gtest's own string diff is quadratic
 *  in the line count, so on a large mismatch it can exhaust memory and
 *  get the test process killed instead of reporting a failure. */
inline void
expectSameText(const std::string &a, const std::string &b,
               const std::string &what)
{
    if (a == b)
        return;
    std::istringstream as(a), bs(b);
    std::string la, lb;
    for (size_t line = 1;; ++line) {
        const bool moreA = static_cast<bool>(std::getline(as, la));
        const bool moreB = static_cast<bool>(std::getline(bs, lb));
        if (moreA != moreB || la != lb || !moreA) {
            ADD_FAILURE() << what << " differ at line " << line << ":\n  "
                          << (moreA ? la : "<end>") << "\n  "
                          << (moreB ? lb : "<end>");
            return;
        }
    }
}

/**
 * `job` as an independent sequential run: a single-core cell on
 * runSingleCore, its probe armed on the hierarchy's LLC before warmup
 * and read after the run, and a multi-core cell on runMultiCore.  Any
 * other job comes back unchanged.
 */
inline pdp::runner::Job
sequentialJob(const pdp::runner::Job &job)
{
    using namespace pdp;
    using namespace pdp::runner;
    if (!job.cell)
        return job;
    Job seq;
    seq.key = job.key;
    seq.seed = job.seed;
    seq.run = [cell = *job.cell](const JobContext &ctx) {
        JobOutcome outcome;
        if (const auto *single = std::get_if<SingleCoreCell>(&cell)) {
            auto gen = SpecSuite::make(single->benchmark, ctx.seed);
            Hierarchy hierarchy =
                makeHierarchy(single->config, single->makePolicy());
            const ProbeReadout readout =
                single->probe ? single->probe(hierarchy.llc()) : nullptr;
            outcome.single = runSingleCore(*gen, hierarchy, single->config);
            if (readout)
                readout(outcome.metrics);
        } else {
            const auto &multi = std::get<MultiCoreCell>(cell);
            outcome.multi =
                runMultiCore(multi.workload, multi.policy, multi.config);
        }
        return outcome;
    };
    return seq;
}

/** sequentialJob of every job in `jobs`, in order. */
inline std::vector<pdp::runner::Job>
sequentialJobs(const std::vector<pdp::runner::Job> &jobs)
{
    std::vector<pdp::runner::Job> seq;
    for (const pdp::runner::Job &job : jobs)
        seq.push_back(sequentialJob(job));
    return seq;
}

#endif // PDP_TESTS_TEST_SUPPORT_H
