/**
 * @file
 * Named experiment suites: declarative job grids plus the reduce step
 * that renders each paper figure's tables from the collected records.
 *
 * A Suite is (name, description, buildJobs, report).  buildJobs expands
 * the experiment into independent Jobs (one simulation cell each);
 * runSuite() executes them on a ThreadPoolExecutor, calls report() to
 * print the figure's text tables from the returned records, and hands
 * the records to a ResultsSink that writes BENCH_<name>.json — identical
 * output no matter how many workers ran the grid.
 *
 * Every paper artifact is a suite, and each suite family has its own
 * file behind the one registry (allSuites):
 *   - suites.cc: the runner core (RecordLookup, the job builders,
 *     selectJobs, runSuite) and the smoke suite;
 *   - policy_suites.cc: fig10_single_core, fig4_static_pdp (with Fig. 2
 *     and Table 2) and fig12_partitioning;
 *   - figure_suites.cc: the other paper figures and sections;
 *   - hotpath_suite.cc: hotpath;
 *   - service_suite.cc: service;
 *   - model_suites.cc: model_validation and explore.
 * Helpers that more than one family uses are declared in
 * suite_helpers.h.  tools/run_experiments lists/filters/runs suites by
 * name, and its flags are their only configuration.
 */

#ifndef PDP_RUNNER_SUITES_H
#define PDP_RUNNER_SUITES_H

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runner/job.h"
#include "runner/results_sink.h"

namespace pdp
{
namespace runner
{

/** Knobs of one suite run (run_experiments parses them from its flags). */
struct SuiteOptions
{
    /** Run-length multiplier (--scale). */
    double scale = 1.0;
    /** Worker threads; 0 = hardware concurrency (--jobs). */
    unsigned workers = 0;
    /** JSON output directory (--json); "" = the current directory,
     *  "none" disables. */
    std::string jsonDir;
    /** Substring filter on job keys; non-empty runs a partial grid and
     *  replaces the figure report with a generic results table. */
    std::string filter;
    /** Record epoch telemetry in every simulation job (--telemetry). */
    bool telemetry = false;
    /** Also derive structured events and write TRACE_<suite>.jsonl
     *  (--trace; implies telemetry). */
    bool trace = false;
    /** Request-span head-sampling rate in [0, 1] for service-mode jobs
     *  (--obs-sample-rate; implies trace).  0 disables the SpanTracer;
     *  the sample decision is a pure hash of (seed, tenant, request), so
     *  sampled spans are deterministic across worker counts. */
    double obsSampleRate = 0.0;
    /** Profile with hardware perf counters: per job via the executor and
     *  per epoch via the sampler (--perf-counters).  Volatile data only;
     *  cleanly absent where perf_event_open is unavailable. */
    bool perfCounters = false;
    /** Service suite: trip an injected PDP_CHECK at this measured-access
     *  index in every service job (--fault-at; 0 disables).  Exercises
     *  the fault flight recorder end to end. */
    uint64_t serviceFaultAt = 0;
    /** Service suite: initial (and max concurrent) tenant count
     *  (--tenants; bounded by CacheStats::kMaxThreads). */
    unsigned serviceTenants = 16;
    /** Service suite: scripted leave+join swap steps (--churn; must stay
     *  below the tenant count). */
    unsigned serviceChurn = 4;
    /** Write BENCH_<suite>.json in the deterministic (volatile-free)
     *  form so files byte-compare across worker counts
     *  (--deterministic-json). */
    bool deterministicJson = false;
    /** Explore suite: prune the design-space grid with the analytic
     *  model (src/model/) and simulate only the top contenders per
     *  policy family plus one audit cell (--explore).  Off = simulate
     *  the exhaustive grid. */
    bool explore = false;
};

/** Key-indexed view over executed records for the reduce step. */
class RecordLookup
{
  public:
    explicit RecordLookup(const std::vector<JobRecord> &records);

    /** The record for `key`, or nullptr when absent. */
    const JobRecord *find(const std::string &key) const;

    /** The single-core result for `key`; nullptr when absent, failed or
     *  not a single-core job. */
    const SimResult *single(const std::string &key) const;

    /** The multi-core result for `key` under the same rules. */
    const MultiCoreResult *multi(const std::string &key) const;

    /** The service-mode result for `key` under the same rules. */
    const ServiceResult *service(const std::string &key) const;

    /** Scalar metric `name` of the record for `key`; empty when the
     *  record is absent, failed or lacks the metric. */
    std::optional<double> metric(const std::string &key,
                                 const std::string &name) const;

    /** All record keys, sorted (reports that derive their grid from the
     *  executed keys, e.g. the option-parameterized service suite). */
    std::vector<std::string> keys() const;

  private:
    std::map<std::string, const JobRecord *> byKey_;
};

/** One named experiment. */
struct Suite
{
    std::string name;
    std::string description;
    std::function<std::vector<Job>(const SuiteOptions &)> buildJobs;
    std::function<void(std::ostream &, const RecordLookup &)> report;
};

/** Registry of all suites: the paper's figures first (fig10_single_core,
 *  fig4_static_pdp, fig12_partitioning, then figureSuites()), then
 *  hotpath, smoke, service, model_validation and explore. */
const std::vector<Suite> &allSuites();

/** The suites of one family each, in registry order: policy_suites.cc
 *  (fig10_single_core, fig4_static_pdp, fig12_partitioning),
 *  figure_suites.cc (fig1_rdd, fig5a_occupancy, fig6_model, fig9_params,
 *  fig11_phases, prefetch, hardware), hotpath_suite.cc, service_suite.cc
 *  and model_suites.cc (model_validation, explore). */
std::vector<Suite> policySuites();
std::vector<Suite> figureSuites();
Suite hotpathSuite();
Suite serviceSuite();
std::vector<Suite> modelSuites();

/** Lookup by name; nullptr when unknown. */
const Suite *findSuite(const std::string &name);

/**
 * Build, execute, report and serialize one suite.  Returns the number
 * of jobs that did not finish Ok plus the number of result files
 * (BENCH, TRACE) that could not be written (0 == success), so it can be
 * used as a process exit code.
 */
int runSuite(const Suite &suite, const SuiteOptions &options,
             std::ostream &out);

/** The jobs runSuite() executes: the suite's grid narrowed to the keys
 *  that contain options.filter, each run of adjacent single- or
 *  multi-core cells that may share a decode folded into one lockstep
 *  sweep keyed "<first key>..<last key>", and a lone cell run as a
 *  one-lane job under its own key (DESIGN.md "Lockstep sweeps"). */
std::vector<Job> selectJobs(const Suite &suite, const SuiteOptions &options);

/** One policy of the prefetch suite (Sec. 6.5). */
struct PrefetchVariant
{
    std::string key;
    std::string label;
    PolicyFactory makePolicy;
};

/** The prefetch suite's policies: DRRIP, prefetch-unaware PDP-8 and its
 *  two prefetch-aware variants. */
std::vector<PrefetchVariant> prefetchVariants();

/**
 * The single-core config of `accesses` measured + `warmup` accesses at
 * options.scale, with the run's telemetry knobs.  Throws CheckFailure
 * when the scale leaves no measured access, so a suite refuses to build
 * a grid of empty runs.
 */
SimConfig scaledConfig(const SuiteOptions &options,
                       uint64_t accesses = 3'000'000,
                       uint64_t warmup = 1'000'000);

/** A single-core simulation cell, seeded with seedFor(benchmark) so
 *  every policy of one benchmark sees the same stream. */
Job singleCoreJob(std::string key, std::string benchmark,
                  std::string policySpec, const SimConfig &config);

/** Same, with an explicit policy builder for policies that have no
 *  factory spec (e.g. DRRIP at a swept epsilon) and an optional LLC
 *  probe.  Both run on the worker thread and must be self-contained. */
Job singleCoreJob(std::string key, std::string benchmark,
                  PolicyFactory makePol, const SimConfig &config,
                  LlcProbe probe = {});

/** A multi-core workload × policy cell; selectJobs folds adjacent
 *  policies of one mix into one sweep. */
Job multiCoreJob(std::string key, WorkloadSpec workload,
                 std::string policySpec, const MultiCoreConfig &config);

/** A service-mode job: one scripted tenant population under one shared
 *  policy.  All policies of one scenario share `seed` so they see the
 *  identical open-loop traffic (pass seedFor(scenario tag)). */
Job serviceJob(std::string key, std::vector<TenantSpec> tenants,
               std::string policySpec, const ServiceConfig &config,
               uint64_t seed);

} // namespace runner
} // namespace pdp

#endif // PDP_RUNNER_SUITES_H
