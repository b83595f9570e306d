/**
 * @file
 * The experiment-runner job model.
 *
 * A Job is one independent simulation cell of an experiment grid — one
 * (benchmark, policy, SimConfig) point, one static-PD grid point, one
 * multi-core workload × policy pairing, and so on.  Jobs are the unit of
 * parallelism: the ThreadPoolExecutor (thread_pool.h) may run any subset
 * of them concurrently on std::thread workers.
 *
 * Ownership rule (load-bearing for thread safety): a job's run callable
 * must construct **everything mutable it touches** — generator, policy,
 * hierarchy, timing model — inside the call, and must not share mutable
 * simulator state with any other job.  The simulator classes (Cache,
 * Hierarchy, ReplacementPolicy, AccessGenerator, Accumulator, Table) are
 * deliberately not thread-safe; "one hierarchy per job" is what makes the
 * sweep race-free.  The only cross-job state a job may reach is the
 * explicitly synchronized memo inside pdp::standaloneIpc().
 *
 * Seeding discipline: every Job carries an explicit seed, derived from
 * the stable part of its key with seedFor() — never a library default.
 * Jobs that compare policies on the same workload must share the seed of
 * that workload (seedFor(benchmark)), so every policy sees the identical
 * access stream.  Because seeds are a pure function of the job and all
 * simulator state is job-local, results are bit-identical no matter how
 * many workers run the grid or in which order jobs complete.
 *
 * Multi-core cells: a multiCoreJob records its workload, shared-policy
 * spec and MultiCoreConfig in Job::cell, as a singleCoreJob records its
 * benchmark, policy factory and SimConfig, so runner::selectJobs folds a
 * mix's adjacent policies into one lockstep sweep.  Its seed is
 * seedFor(workload label), but instantiate(workload) seeds its
 * generators (a fixed seed per core), not Job::seed.
 */

#ifndef PDP_RUNNER_JOB_H
#define PDP_RUNNER_JOB_H

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "hw/perf_counters.h"
#include "service/service_sim.h"
#include "sim/lockstep_sweep.h"
#include "sim/multi_core_sim.h"
#include "sim/single_core_sim.h"
#include "util/rng.h"

namespace pdp
{
namespace runner
{

/**
 * Deterministic 64-bit seed for a job tag (FNV-1a folded through the
 * splitmix avalanche).  Stable across runs, platforms and worker counts;
 * never returns 0 so a derived seed can't alias a "default" seed.
 */
inline uint64_t
seedFor(std::string_view tag)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : tag) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    h = hashMix64(h);
    return h ? h : 0x5eedULL;
}

/** Per-execution context handed to a job's run callable. */
struct JobContext
{
    /** The job's explicit seed (Job::seed), for generator construction. */
    uint64_t seed = 0;
    /** Threads a lockstep job may spread its lanes over (results must
     *  not depend on it; see ThreadPoolExecutor::run). */
    unsigned laneThreads = 1;
};

/** What a job produced: structured sim results and/or scalar metrics. */
struct JobOutcome
{
    std::optional<SimResult> single;
    std::optional<MultiCoreResult> multi;
    std::optional<ServiceResult> service;
    /** Extra scalar metrics (sorted map => deterministic JSON order). */
    std::map<std::string, double> metrics;
};

/** One keyed result out of a multi-result job (Job::runMany). */
struct KeyedOutcome
{
    std::string key;
    JobOutcome outcome;
};

/** Terminal state of one job. */
enum class JobStatus
{
    /** Completed normally. */
    Ok,
    /** The run callable threw; JobRecord::error holds the message. */
    Failed,
    /** Completed, but exceeded its (soft) wall-clock timeout. */
    TimedOut,
};

inline const char *
toString(JobStatus status)
{
    switch (status) {
    case JobStatus::Ok:
        return "ok";
    case JobStatus::Failed:
        return "failed";
    case JobStatus::TimedOut:
        return "timed_out";
    }
    return "unknown";
}

/** One single-core simulation cell (runner::singleCoreJob). */
struct SingleCoreCell
{
    std::string benchmark;
    PolicyFactory makePolicy;
    SimConfig config;
};

/** One multi-core simulation cell (runner::multiCoreJob). */
struct MultiCoreCell
{
    WorkloadSpec workload;
    std::string policy;
    MultiCoreConfig config;
};

/** What a simulation job's `run` simulates. */
using SimCell = std::variant<SingleCoreCell, MultiCoreCell>;

/** One schedulable unit of an experiment. */
struct Job
{
    /** Unique key within the experiment, e.g. "fig10/470.lbm/PDP-3". */
    std::string key;
    /** Explicit RNG seed (see the seeding discipline above). */
    uint64_t seed = 0;
    /** Soft wall-clock timeout in seconds; 0 uses the executor default.
     *  The runner cannot preempt a compute-bound simulation, so an
     *  overrunning job still completes — it is then *recorded* as
     *  TimedOut instead of Ok. */
    double timeoutSeconds = 0.0;
    /** The work.  Must follow the one-hierarchy-per-job ownership rule. */
    std::function<JobOutcome(const JobContext &)> run;
    /** Multi-result alternative to `run`: one schedulable unit producing
     *  several keyed outcomes (e.g. a lockstep sweep amortizing one trace
     *  decode over a whole policy grid, sim/lockstep_sweep.h).  Exactly
     *  one of run/runMany may be set.  Each KeyedOutcome becomes its own
     *  JobRecord — same seed, same group wall-clock — in returned order,
     *  so downstream consumers (sinks, reports) can't tell a fanned-out
     *  job from the equivalent independent jobs. */
    std::function<std::vector<KeyedOutcome>(const JobContext &)> runMany;
    /** What a simulation `run` simulates, for runner::selectJobs to
     *  fold into a lockstep sweep; empty for every other job. */
    std::optional<SimCell> cell;
};

/** Outcome + bookkeeping of one executed job. */
struct JobRecord
{
    std::string key;
    uint64_t seed = 0;
    JobStatus status = JobStatus::Failed;
    /** Exception message (Failed) or overrun note (TimedOut). */
    std::string error;
    /** Wall-clock duration; reporting only, excluded from deterministic
     *  serializations. */
    double seconds = 0.0;
    /** Hardware counter deltas over the job (ExecutorOptions::
     *  perfCounters; hw.valid false on the null backend).  Volatile
     *  like `seconds`: host-measured, excluded from deterministic
     *  serializations, and serialized as an absent section — never
     *  zero-filled — when invalid. */
    hw::PerfReading hw;
    JobOutcome outcome;
};

} // namespace runner
} // namespace pdp

#endif // PDP_RUNNER_JOB_H
