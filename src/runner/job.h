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
 * sweep race-free.  A job still reaches three process-wide objects, each
 * synchronized on its own:
 *  - the memo inside pdp::standaloneIpc(): a mutex-guarded map; the
 *    baseline run itself happens outside the lock;
 *  - ZipfSampler::shared()'s table map: mutex-guarded, and a table is
 *    built under the lock, then only read through a shared_ptr<const>;
 *  - check::FlightRecorder::global(): mutex-guarded, and the job key a
 *    dump is filed under is thread_local.
 *
 * Seeding discipline: every Job carries an explicit seed, derived from
 * the stable part of its key with seedFor() — never a library default.
 * Jobs that compare policies on the same workload must share the seed of
 * that workload (seedFor(benchmark)), so every policy sees the identical
 * access stream.  Because seeds are a pure function of the job and all
 * simulator state is job-local, results are bit-identical no matter how
 * many workers run the grid or in which order jobs complete.
 *
 * Simulation cells: singleCoreJob and multiCoreJob set Job::cell and no
 * callable; runner::selectJobs runs each stretch of adjacent cells over
 * one stream as one lockstep sweep, a lone cell as a one-lane job under
 * its own key.  A multi-core cell's seed is seedFor(workload label), but
 * instantiate(workload) seeds its generators (a fixed seed per core).
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

/** A record's scalar metrics (sorted map => deterministic JSON order). */
using Metrics = std::map<std::string, double>;

/** What a job produced: structured sim results and/or scalar metrics. */
struct JobOutcome
{
    std::optional<SimResult> single;
    std::optional<MultiCoreResult> multi;
    std::optional<ServiceResult> service;
    Metrics metrics;
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
};

inline const char *
toString(JobStatus status)
{
    switch (status) {
    case JobStatus::Ok:
        return "ok";
    case JobStatus::Failed:
        return "failed";
    }
    return "unknown";
}

/** Adds what a probe read to its cell's record; runs after the run,
 *  while the cell's LLC still lives. */
using ProbeReadout = std::function<void(Metrics &)>;

/** Instruments one single-core cell's LLC: armed on it before warmup
 *  (it may attach a CacheObserver there), it returns the readout. */
using LlcProbe = std::function<ProbeReadout(Cache &llc)>;

/** One single-core simulation cell (runner::singleCoreJob). */
struct SingleCoreCell
{
    std::string benchmark;
    PolicyFactory makePolicy;
    SimConfig config;
    /** Empty for a cell whose record is its SimResult alone.  Each arm
     *  builds its own state, per the ownership rule. */
    LlcProbe probe;
};

/** One multi-core simulation cell (runner::multiCoreJob). */
struct MultiCoreCell
{
    WorkloadSpec workload;
    std::string policy;
    MultiCoreConfig config;
};

/** A simulation cell of either kind. */
using SimCell = std::variant<SingleCoreCell, MultiCoreCell>;

/** One schedulable unit of an experiment. */
struct Job
{
    /** Unique key within the experiment, e.g. "fig10/470.lbm/PDP-3". */
    std::string key;
    /** Explicit RNG seed (see the seeding discipline above). */
    uint64_t seed = 0;
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
    /** A simulation cell, set instead of run/runMany: runner::
     *  selectJobs turns it into a lane job (see the file comment). */
    std::optional<SimCell> cell;
};

/** Outcome + bookkeeping of one executed job. */
struct JobRecord
{
    std::string key;
    uint64_t seed = 0;
    JobStatus status = JobStatus::Failed;
    /** Exception message (Failed). */
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
