/**
 * @file
 * ResultsSink: thread-safe collection of job records and their JSON
 * serialization.
 *
 * One sink per suite run.  Worker threads add() records as jobs finish
 * (wire it to ExecutorOptions::onComplete); the coordinating thread then
 * serializes everything as one BENCH_<experiment>.json document next to
 * the usual text tables.
 *
 * JSON schema ("pdp-bench-results/v2"; v1 differs only in lacking the
 * telemetry/registry sections and is still accepted by
 * validateResultsDocument):
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
 *         "status": "ok" | "failed" | "timed_out",
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
 *           "events": [           // only when --trace; volatile events
 *             {"type": "pd_change", "access": 262144,  // (phase timers)
 *              "fields": {"from": 128, "to": 68}}, ... // are omitted in
 *           ],                                         // determin. dumps
 *           "events_dropped": 0
 *         }
 *       }, ...
 *     ],
 *     "registry": {"telemetry.epochs": 34, ...}  // volatile-only section
 *   }
 *
 * The deterministic form (includeVolatile = false) omits wall-clock
 * durations, the worker count, volatile trace events and the registry
 * dump, so a 1-worker and an N-worker sweep of the same grid dump
 * byte-identical documents — that equality is the runner's determinism
 * test, and it holds with telemetry on.
 */

#ifndef PDP_RUNNER_RESULTS_SINK_H
#define PDP_RUNNER_RESULTS_SINK_H

#include <mutex>
#include <string>
#include <vector>

#include "runner/job.h"
#include "runner/json.h"
#include "telemetry/epoch_sampler.h"
#include "telemetry/metrics.h"

namespace pdp
{
namespace runner
{

/** Schema identifiers accepted by validateResultsDocument. */
inline constexpr const char *kResultsSchemaV1 = "pdp-bench-results/v1";
inline constexpr const char *kResultsSchemaV2 = "pdp-bench-results/v2";

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

/**
 * Structural validation of a parsed results document.  Accepts both v1
 * and v2; returns the schema version (1 or 2), or 0 with a message in
 * *error when the document is malformed.  A telemetry section on a job
 * is only legal in v2.
 */
int validateResultsDocument(const Json &doc, std::string *error = nullptr);

class ResultsSink
{
  public:
    explicit ResultsSink(std::string experiment);

    const std::string &experiment() const { return experiment_; }

    /** Record the suite's run-length scale factor (--scale). */
    void setScale(double scale);

    /** Record the executor's worker count (volatile metadata). */
    void setWorkers(unsigned workers);

    /** Attach a metrics-registry dump (emitted only in volatile form:
     *  registry totals are process-global, not per-grid). */
    void setRegistrySnapshot(std::vector<telemetry::MetricSnapshot> snap);

    /** Make writeFile() emit the deterministic (volatile-free) form, so
     *  on-disk documents can be byte-compared across worker counts
     *  (CI's service-smoke identity check). */
    void setDeterministicFile(bool on);

    /** Append one record.  Thread-safe; callable from worker threads. */
    void add(JobRecord record);

    size_t size() const;

    /** All records sorted by job key (stable across worker counts). */
    std::vector<JobRecord> sortedRecords() const;

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
     * "" -> "." (the current directory); "none" or "0" -> disabled
     * (returns ""); anything else is used as the directory.
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
    std::vector<telemetry::MetricSnapshot> registry_;
    mutable std::mutex mutex_;
    std::vector<JobRecord> records_;
};

} // namespace runner
} // namespace pdp

#endif // PDP_RUNNER_RESULTS_SINK_H
