/**
 * @file
 * ThreadPoolExecutor: run a vector of Jobs on std::thread workers.
 *
 * Guarantees:
 *  - **Determinism.**  Results depend only on each job's own inputs
 *    (key, seed, captured configs); they never depend on worker count,
 *    scheduling order or completion order.  run() returns records in
 *    the jobs' input order, so a 1-worker and an N-worker sweep of the
 *    same grid produce identical record sequences (timings aside).
 *  - **Fault isolation.**  A job that throws becomes a Failed record
 *    carrying the exception message; the sweep always completes and the
 *    remaining jobs are unaffected.
 *
 * That is the whole contract: run() hands every record back to its
 * caller, which alone reduces and serializes them (runSuite passes them
 * to a ResultsSink).  Thread-safety: jobs must follow the
 * one-hierarchy-per-job ownership rule documented in job.h.  The
 * executor itself touches only its private queue index and per-index
 * record slots.
 */

#ifndef PDP_RUNNER_THREAD_POOL_H
#define PDP_RUNNER_THREAD_POOL_H

#include <vector>

#include "runner/job.h"

namespace pdp
{
namespace runner
{

/** Executor configuration. */
struct ExecutorOptions
{
    /** Worker threads; 0 resolves to std::thread::hardware_concurrency()
     *  (at least 1). */
    unsigned workers = 0;
    /** Profile each job with a hardware perf-counter group
     *  (hw/perf_counters.h) into JobRecord::hw; silently a no-op where
     *  perf_event_open is unavailable. */
    bool perfCounters = false;
};

class ThreadPoolExecutor
{
  public:
    explicit ThreadPoolExecutor(ExecutorOptions options = {});

    /** Resolved worker count (>= 1). */
    unsigned workers() const { return workers_; }

    /**
     * Run every job and return its records in the jobs' input order.
     * Plain jobs contribute one record; runMany jobs contribute one per
     * KeyedOutcome (in the order the job returned them), so the flat
     * sequence is still a pure function of the job list.  With
     * workers() == 1 (or a single job) execution is inline on the
     * calling thread — handy under a debugger and the baseline for the
     * determinism tests.  Every job's JobContext::laneThreads is
     * max(1, hardware threads / min(workers(), jobs.size())).
     */
    std::vector<JobRecord> run(const std::vector<Job> &jobs);

  private:
    /** Execute one job; always returns at least one record. */
    std::vector<JobRecord> execute(const Job &job, unsigned laneThreads) const;

    ExecutorOptions options_;
    unsigned workers_ = 1;
};

} // namespace runner
} // namespace pdp

#endif // PDP_RUNNER_THREAD_POOL_H
