/**
 * @file
 * Serialized progress reporting for experiment sweeps.
 *
 * Worker threads finish jobs concurrently; the reporter is the single
 * funnel through which anything they say reaches stderr, so partial
 * lines never interleave.  Every emission is one complete line written
 * with a single fprintf under a mutex.
 */

#ifndef PDP_RUNNER_PROGRESS_H
#define PDP_RUNNER_PROGRESS_H

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>

#include "runner/job.h"

namespace pdp
{
namespace runner
{

/**
 * Thread-safe batch progress on stderr.
 *
 * Verbosity is off by default (run_experiments --verbose turns it on).
 * When quiet, per-job progress lines are suppressed (batch summaries are
 * the caller's business).
 */
class ProgressReporter
{
  public:
    ProgressReporter() = default;

    /** The process-wide reporter. */
    static ProgressReporter &global();

    void setVerbose(bool verbose);

    /** Start a batch of `total` jobs on `workers` workers. */
    void beginBatch(const std::string &name, size_t total, unsigned workers);

    /**
     * Record one finished job.  Emits (when verbose)
     *   [runner] fig10 12/442 ok 1.32s fig10/gcc/DIP (busy 3/8, ETA 42s)
     * `busyWorkers` is the executor's count of still-occupied workers.
     */
    void jobFinished(const JobRecord &record, unsigned busyWorkers);

  private:
    mutable std::mutex mutex_;
    bool verbose_ = false;
    std::string batch_;
    size_t total_ = 0;
    size_t done_ = 0;
    unsigned workers_ = 0;
    std::chrono::steady_clock::time_point start_{};
};

} // namespace runner
} // namespace pdp

#endif // PDP_RUNNER_PROGRESS_H
