/**
 * @file
 * ResultsSink: the job records of one suite run and their JSON
 * serialization.
 *
 * One sink per suite run, used by one thread: runSuite() adds the
 * records ThreadPoolExecutor::run returned and serializes them as one
 * BENCH_<experiment>.json document next to the usual text tables.
 *
 * JSON schema ("pdp-bench-results/v2"; v1 differs only in lacking the
 * telemetry and service sections, and tools/pdpreport.py, the reader of
 * these files, still accepts it, as it accepts the process-wide
 * "registry" section older v2 files carry):
 *
 *   {
 *     "schema": "pdp-bench-results/v2",
 *     "experiment": "fig10_single_core",
 *     "git": "<git describe at configure time>",
 *     "scale": 0.1,               // run_experiments --scale in effect
 *     "workers": 8,               // volatile: omitted in deterministic dumps
 *     "job_count": 442,
 *     "jobs": [                   // sorted by key
 *       {
 *         "key": "fig10/401.gcc/DIP",
 *         "seed": 1234,
 *         "status": "ok" | "failed",
 *         "error": "...",         // only when non-empty
 *         "seconds": 1.32,        // volatile: omitted in deterministic dumps
 *         "hardware": {           // volatile; only when perf counters were
 *           "cycles": ...,        // live (absent — never zero-filled — on
 *           "instructions": ...,  // the null backend)
 *           "cache_misses": ..., "branch_misses": ...},
 *         "metrics": {"best_pd": 72, ...},          // optional scalars
 *         "single": { ... SimResult fields ... },   // when present
 *         "multi": { ... MultiCoreResult fields ... },
 *         "service": { ... ServiceResult fields: policy, tenant_aware,
 *                      joins/leaves/reallocs, aggregate_hit_rate and a
 *                      per-tenant SLO array ... },
 *         "telemetry": {          // only when the run sampled epochs
 *           "interval": 262144,
 *           "epochs_dropped": 0,  // only when nonzero
 *           "epochs": [
 *             {"epoch": 0, "access": 262144, "accesses": 181002,
 *              "hits": 48211, "misses": 132791, "bypasses": 60102,
 *              "hit_rate": 0.266,
 *              "policy": {"pd": 68, ...},           // Source scalars
 *              "series": {"rdd": [..], "e_curve": [..], ...},
 *              "thread_occupancy": [31768],
 *              "hw": {"cycles": ..., ...}},         // volatile; perf
 *             ...                                   // counters only
 *           ],
 *           "events": [           // only when --trace (setEvent)
 *             {"type": "pd_change", "access": 262144,
 *              "fields": {"from": 128, "to": 68}},
 *             {"type": "phase:measure", "access": 0,
 *              "volatile": true, "fields": {"seconds": 0.8}}, ...
 *           ],
 *           "events_dropped": 0
 *         }
 *       }, ...
 *     ]
 *   }
 *
 * The deterministic form (includeVolatile = false) omits wall-clock
 * durations, the worker count and volatile trace events (phase timers),
 * so a 1-worker and an N-worker sweep of the same grid dump
 * byte-identical documents — that equality is the runner's determinism
 * test, and it holds with telemetry on.
 */

#ifndef PDP_RUNNER_RESULTS_SINK_H
#define PDP_RUNNER_RESULTS_SINK_H

#include <string>
#include <vector>

#include "runner/job.h"
#include "runner/json.h"
#include "telemetry/epoch_sampler.h"

namespace pdp
{
namespace runner
{

/** SimResult as a JSON object (schema above). */
Json toJson(const SimResult &result);

/** MultiCoreResult as a JSON object (schema above). */
Json toJson(const MultiCoreResult &result);

/** ServiceResult as a JSON object (schema above). */
Json toJson(const ServiceResult &result);

/** One run's telemetry as a JSON object (schema above); volatile events
 *  (phase timers) are dropped when includeVolatile is false. */
Json toJson(const telemetry::RunTelemetry &run, bool includeVolatile = true);

/** One job record as a JSON object. */
Json toJson(const JobRecord &record, bool includeVolatile = true);

/** `event` as `j`'s "type", "access", "volatile" (only when set) and
 *  "fields" members: the one writer of trace events in BENCH, TRACE
 *  and FLIGHT files. */
void setEvent(Json &j, const telemetry::TraceEvent &event);

class ResultsSink
{
  public:
    explicit ResultsSink(std::string experiment);

    const std::string &experiment() const { return experiment_; }

    /** Record the suite's run-length scale factor (--scale). */
    void setScale(double scale);

    /** Record the executor's worker count (volatile metadata). */
    void setWorkers(unsigned workers);

    /** Make writeFile() emit the deterministic (volatile-free) form, so
     *  on-disk documents can be byte-compared across worker counts
     *  (CI's service-smoke identity check). */
    void setDeterministicFile(bool on);

    /** Add one record, in key order among those already added, so the
     *  document lists jobs by key whatever the add order. */
    void add(JobRecord record);

    /** The whole document; includeVolatile = false for the byte-stable
     *  deterministic form (see file comment). */
    Json toJson(bool includeVolatile = true) const;

    /** "BENCH_<experiment>.json". */
    std::string fileName() const;

    /** "TRACE_<experiment>.jsonl". */
    std::string traceFileName() const;

    /**
     * Write the document into `directory` (see outputDirectory()).
     * Returns false (without writing) when JSON output is disabled or
     * the file cannot be created; stores the path written to in
     * *pathOut on success.
     */
    bool writeFile(const std::string &directory = "",
                   std::string *pathOut = nullptr) const;

    /**
     * The directory writeFile() and writeTraceFile() use for `directory`:
     * "" -> "." (the current directory); "none" -> disabled (returns "");
     * anything else, "0" included, is used as the directory.
     */
    static std::string outputDirectory(const std::string &directory);

    /**
     * Flush every record's trace events as JSONL into
     * `directory`/TRACE_<experiment>.jsonl: one header line ("schema":
     * "pdp-bench-trace/v1") then one line per event, tagged with its job
     * key.  Volatile events (phase timers) are included by default, but
     * dropped under setDeterministicFile(true) so the trace stream —
     * request-lifecycle spans, SLO burn events and all — is a determinism
     * surface CI can byte-compare across worker counts.  Returns false
     * when disabled or the file cannot be created.
     */
    bool writeTraceFile(const std::string &directory = "",
                        std::string *pathOut = nullptr) const;

  private:
    std::string experiment_;
    double scale_ = 1.0;
    unsigned workers_ = 0;
    bool deterministicFile_ = false;
    /** Sorted by key. */
    std::vector<JobRecord> records_;
};

} // namespace runner
} // namespace pdp

#endif // PDP_RUNNER_RESULTS_SINK_H
