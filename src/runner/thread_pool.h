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
 *  - **Soft timeouts.**  The runner cannot preempt a compute-bound
 *    simulation, so a timeout does not abort the job: a job whose
 *    wall-clock duration exceeds its budget completes and is recorded
 *    as TimedOut (outcome retained) for the sweep report to flag.
 *
 * Thread-safety contract: jobs must follow the one-hierarchy-per-job
 * ownership rule documented in job.h.  The executor itself touches only
 * its private queue index and per-index record slots.
 */

#ifndef PDP_RUNNER_THREAD_POOL_H
#define PDP_RUNNER_THREAD_POOL_H

#include <functional>
#include <vector>

#include "runner/job.h"
#include "runner/progress.h"

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
    /** Soft wall-clock timeout applied to jobs whose own timeoutSeconds
     *  is 0; 0 disables. */
    double defaultTimeoutSeconds = 0.0;
    /** Profile each job with a hardware perf-counter group
     *  (hw/perf_counters.h) into JobRecord::hw; silently a no-op where
     *  perf_event_open is unavailable. */
    bool perfCounters = false;
    /** Progress funnel; nullptr for silent runs. */
    ProgressReporter *reporter = nullptr;
    /** Called on a worker thread after each job finishes (any status).
     *  Must be thread-safe; ResultsSink::add qualifies. */
    std::function<void(const JobRecord &)> onComplete;
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
