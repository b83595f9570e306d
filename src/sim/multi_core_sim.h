/**
 * @file
 * The multi-core shared-LLC simulator and its metrics (Sec. 5).
 *
 * p cores, each with a private L2, share an LLC of p x 2 MB.  Threads
 * interleave round-robin by access (runRoundRobin), so every thread
 * reaches its access budget in the same round and no thread runs on
 * alone after another has finished.
 *
 * Metrics (normalized to each thread's stand-alone LRU run on the same
 * shared-size LLC, as in the paper):
 *   W = sum_i IPC_i / IPC_single_i          (weighted IPC)
 *   T = sum_i IPC_i                         (throughput)
 *   H = N / sum_i (IPC_single_i / IPC_i)    (harmonic fairness)
 */

#ifndef PDP_SIM_MULTI_CORE_SIM_H
#define PDP_SIM_MULTI_CORE_SIM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "sim/timing_model.h"
#include "telemetry/epoch_sampler.h"
#include "trace/workload.h"

namespace pdp
{

/** Multi-core run configuration. */
struct MultiCoreConfig
{
    unsigned cores = 4;
    /** Measured accesses per thread. */
    uint64_t accessesPerThread = 1'200'000;
    uint64_t warmupPerThread = 400'000;
    TimingParams timing{};
    /** Incremental invariant-audit cadence on the shared LLC (accesses
     *  between audit ticks); 0 disables auditing.  A violation throws
     *  CheckFailure out of the run.  See src/check/. */
    uint64_t auditEvery = 0;
    /** Epoch telemetry knobs (off by default; see src/telemetry/). */
    telemetry::TelemetryConfig telemetry{};
    bool operator==(const MultiCoreConfig &) const = default;

    MultiCoreConfig
    scaled(double factor) const
    {
        MultiCoreConfig cfg = *this;
        cfg.accessesPerThread =
            static_cast<uint64_t>(accessesPerThread * factor);
        cfg.warmupPerThread =
            static_cast<uint64_t>(warmupPerThread * factor);
        return cfg;
    }
};

/** Per-thread outcome of a multi-core run. */
struct ThreadOutcome
{
    std::string benchmark;
    double ipc = 0.0;
    double mpki = 0.0;
    uint64_t llcMisses = 0;
};

/** Outcome of one workload under one policy. */
struct MultiCoreResult
{
    std::string policy;
    std::vector<ThreadOutcome> threads;
    double weightedIpc = 0.0;
    double throughput = 0.0;
    double harmonicFairness = 0.0;
    /** Audit passes run, all clean (only populated when auditEvery
     *  > 0; a dirty pass throws instead). */
    uint64_t auditsRun = 0;
    /** Epoch time-series + events (only when config.telemetry.enabled). */
    std::shared_ptr<const telemetry::RunTelemetry> telemetry;
};

/** Build a shared-LLC policy by name for `threads` cores:
 *  LRU | DIP | TA-DRRIP | UCP | PIPP | PDP-2 | PDP-3. */
std::unique_ptr<ReplacementPolicy> makeSharedPolicy(const std::string &spec,
                                                    unsigned threads);

/**
 * Run one workload under one policy on runRoundRobin.  Stand-alone LRU
 * baselines for the metric normalization are computed (and memoized
 * per process) with the same shared-LLC geometry.  Throws CheckFailure
 * for no measured access, a workload that is not config.cores
 * benchmarks, or more than CacheStats::kMaxThreads cores.
 */
MultiCoreResult runMultiCore(const WorkloadSpec &workload,
                             const std::string &policy_spec,
                             const MultiCoreConfig &config);

/** runMultiCore for every spec in `policies`, over one decode of the mix
 *  (runLockstepLanes).  Throws what runMultiCore throws. */
std::vector<MultiCoreResult>
runMultiCoreLockstep(const WorkloadSpec &workload,
                     const std::vector<std::string> &policies,
                     const MultiCoreConfig &config, unsigned threads = 1);

/** The stand-alone LRU IPC of a benchmark on a `cores`-sized LLC. */
double standaloneIpc(const std::string &benchmark,
                     const MultiCoreConfig &config);

} // namespace pdp

#endif // PDP_SIM_MULTI_CORE_SIM_H
