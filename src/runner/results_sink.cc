#include "runner/results_sink.h"

#include <algorithm>
#include <fstream>

// Injected by src/CMakeLists.txt from `git describe` at configure time;
// stale only until the next reconfigure, "unknown" outside a checkout.
#ifndef PDP_GIT_DESCRIBE
#define PDP_GIT_DESCRIBE "unknown"
#endif

namespace pdp
{
namespace runner
{

Json
toJson(const SimResult &result)
{
    Json j = Json::object();
    j.set("benchmark", result.benchmark);
    j.set("policy", result.policy);
    j.set("instructions", result.instructions);
    j.set("cycles", result.cycles);
    j.set("ipc", result.ipc);
    j.set("mpki", result.mpki);
    j.set("llc_accesses", result.llcAccesses);
    j.set("llc_hits", result.llcHits);
    j.set("llc_misses", result.llcMisses);
    j.set("llc_bypasses", result.llcBypasses);
    j.set("bypass_fraction", result.bypassFraction);
    if (result.auditsRun)
        j.set("audits_run", result.auditsRun);
    return j;
}

Json
toJson(const MultiCoreResult &result)
{
    Json j = Json::object();
    j.set("policy", result.policy);
    j.set("weighted_ipc", result.weightedIpc);
    j.set("throughput", result.throughput);
    j.set("harmonic_fairness", result.harmonicFairness);
    Json threads = Json::array();
    for (const ThreadOutcome &thread : result.threads) {
        Json t = Json::object();
        t.set("benchmark", thread.benchmark);
        t.set("ipc", thread.ipc);
        t.set("mpki", thread.mpki);
        t.set("llc_misses", thread.llcMisses);
        threads.push(std::move(t));
    }
    j.set("threads", std::move(threads));
    if (result.auditsRun)
        j.set("audits_run", result.auditsRun);
    return j;
}

Json
toJson(const ServiceResult &result)
{
    Json j = Json::object();
    j.set("policy", result.policy);
    j.set("tenant_aware", result.tenantAware);
    j.set("joins", result.joins);
    j.set("leaves", result.leaves);
    j.set("reallocs", result.reallocs);
    j.set("aggregate_hit_rate", result.aggregateHitRate);
    if (result.spansSampled)
        j.set("spans_sampled", result.spansSampled);
    Json tenants = Json::array();
    for (const TenantOutcome &tenant : result.tenants) {
        Json t = Json::object();
        t.set("name", tenant.name);
        t.set("slot", static_cast<uint64_t>(tenant.slot));
        t.set("joined_at", tenant.joinedAt);
        t.set("left_at", tenant.leftAt);
        t.set("requests", tenant.requests);
        t.set("llc_accesses", tenant.llcAccesses);
        t.set("llc_hits", tenant.llcHits);
        t.set("llc_misses", tenant.llcMisses);
        t.set("hit_rate", tenant.hitRate);
        t.set("ipc", tenant.ipc);
        t.set("p99_miss_cycles", tenant.p99MissCycles);
        t.set("mean_quota", tenant.meanQuota);
        t.set("mean_occupancy", tenant.meanOccupancy);
        t.set("occupancy_drift", tenant.occupancyDrift);
        t.set("slo_hit_rate_met", tenant.hitRateSloMet);
        t.set("slo_latency_met", tenant.latencySloMet);
        t.set("slo_burn_events", tenant.sloBurnEvents);
        t.set("slo_recovered_events", tenant.sloRecoveredEvents);
        t.set("max_burn_rate", tenant.maxBurnRate);
        tenants.push(std::move(t));
    }
    j.set("tenants", std::move(tenants));
    if (result.auditsRun)
        j.set("audits_run", result.auditsRun);
    return j;
}

namespace
{

/** A Source snapshot as `j`'s "policy" (scalars) and, when it has any,
 *  "series" members. */
void
setSnapshot(Json &j, const telemetry::Snapshot &snapshot)
{
    Json policy = Json::object();
    for (const auto &[name, value] : snapshot.scalars)
        policy.set(name, value);
    j.set("policy", std::move(policy));
    if (!snapshot.series.empty()) {
        Json series = Json::object();
        for (const telemetry::Snapshot::Series &s : snapshot.series) {
            Json values = Json::array();
            for (double v : s.values)
                values.push(v);
            series.set(s.name, std::move(values));
        }
        j.set("series", std::move(series));
    }
}

/** The telemetry of whichever result `outcome` holds; nullptr when the
 *  run recorded none. */
const telemetry::RunTelemetry *
telemetryOf(const JobOutcome &outcome)
{
    if (outcome.single && outcome.single->telemetry)
        return outcome.single->telemetry.get();
    if (outcome.multi && outcome.multi->telemetry)
        return outcome.multi->telemetry.get();
    if (outcome.service && outcome.service->telemetry)
        return outcome.service->telemetry.get();
    return nullptr;
}

/** Hardware counter deltas; callers gate on reading.valid — an invalid
 *  reading must stay an *absent* section, never a zero-filled one. */
Json
toJson(const hw::PerfReading &reading)
{
    Json j = Json::object();
    j.set("cycles", reading.cycles);
    j.set("instructions", reading.instructions);
    j.set("cache_misses", reading.cacheMisses);
    j.set("branch_misses", reading.branchMisses);
    return j;
}

} // namespace

void
setEvent(Json &j, const telemetry::TraceEvent &event)
{
    j.set("type", event.type);
    j.set("access", event.accessCount);
    if (event.isVolatile)
        j.set("volatile", true);
    Json fields = Json::object();
    for (const auto &[name, value] : event.fields)
        fields.set(name, value);
    j.set("fields", std::move(fields));
}

Json
toJson(const telemetry::RunTelemetry &run, bool includeVolatile)
{
    Json j = Json::object();
    j.set("interval", run.interval);
    if (run.epochsDropped)
        j.set("epochs_dropped", run.epochsDropped);
    Json epochs = Json::array();
    for (const telemetry::EpochRecord &rec : run.epochs) {
        Json e = Json::object();
        e.set("epoch", rec.epoch);
        e.set("access", rec.accessCount);
        e.set("accesses", rec.intervalAccesses);
        e.set("hits", rec.intervalHits);
        e.set("misses", rec.intervalMisses);
        e.set("bypasses", rec.intervalBypasses);
        e.set("hit_rate",
              rec.intervalAccesses
                  ? static_cast<double>(rec.intervalHits) /
                        static_cast<double>(rec.intervalAccesses)
                  : 0.0);
        setSnapshot(e, rec.policy);
        Json occupancy = Json::array();
        for (uint64_t n : rec.threadOccupancy)
            occupancy.push(n);
        e.set("thread_occupancy", std::move(occupancy));
        // Host-measured, hence volatile; absent (not zero-filled) on the
        // null perf backend.
        if (includeVolatile && rec.hw.valid)
            e.set("hw", toJson(rec.hw));
        epochs.push(std::move(e));
    }
    j.set("epochs", std::move(epochs));
    if (!run.events.empty() || run.eventsDropped) {
        Json events = Json::array();
        for (const telemetry::TraceEvent &event : run.events) {
            if (event.isVolatile && !includeVolatile)
                continue;
            Json e = Json::object();
            setEvent(e, event);
            events.push(std::move(e));
        }
        j.set("events", std::move(events));
        j.set("events_dropped", run.eventsDropped);
    }
    return j;
}

Json
toJson(const JobRecord &record, bool includeVolatile)
{
    Json j = Json::object();
    j.set("key", record.key);
    j.set("seed", record.seed);
    j.set("status", toString(record.status));
    if (!record.error.empty())
        j.set("error", record.error);
    if (includeVolatile)
        j.set("seconds", record.seconds);
    // Same contract as the per-epoch hw section: volatile, and absent —
    // never zero-filled — when the null backend was in effect.
    if (includeVolatile && record.hw.valid)
        j.set("hardware", toJson(record.hw));
    if (!record.outcome.metrics.empty()) {
        Json metrics = Json::object();
        for (const auto &[name, value] : record.outcome.metrics)
            metrics.set(name, value);
        j.set("metrics", std::move(metrics));
    }
    if (record.outcome.single)
        j.set("single", toJson(*record.outcome.single));
    if (record.outcome.multi)
        j.set("multi", toJson(*record.outcome.multi));
    if (record.outcome.service)
        j.set("service", toJson(*record.outcome.service));
    if (const telemetry::RunTelemetry *run = telemetryOf(record.outcome))
        j.set("telemetry", toJson(*run, includeVolatile));
    return j;
}

ResultsSink::ResultsSink(std::string experiment)
    : experiment_(std::move(experiment))
{
}

void
ResultsSink::setScale(double scale)
{
    scale_ = scale;
}

void
ResultsSink::setWorkers(unsigned workers)
{
    workers_ = workers;
}

void
ResultsSink::setDeterministicFile(bool on)
{
    deterministicFile_ = on;
}

void
ResultsSink::add(JobRecord record)
{
    const auto at = std::upper_bound(
        records_.begin(), records_.end(), record.key,
        [](const std::string &key, const JobRecord &other) {
            return key < other.key;
        });
    records_.insert(at, std::move(record));
}

Json
ResultsSink::toJson(bool includeVolatile) const
{
    Json doc = Json::object();
    doc.set("schema", "pdp-bench-results/v2");
    doc.set("experiment", experiment_);
    doc.set("git", PDP_GIT_DESCRIBE);
    doc.set("scale", scale_);
    if (includeVolatile)
        doc.set("workers", workers_);
    doc.set("job_count", static_cast<uint64_t>(records_.size()));
    Json jobs = Json::array();
    for (const JobRecord &record : records_)
        jobs.push(runner::toJson(record, includeVolatile));
    doc.set("jobs", std::move(jobs));
    return doc;
}

std::string
ResultsSink::fileName() const
{
    return "BENCH_" + experiment_ + ".json";
}

std::string
ResultsSink::traceFileName() const
{
    return "TRACE_" + experiment_ + ".jsonl";
}

std::string
ResultsSink::outputDirectory(const std::string &directory)
{
    if (directory.empty())
        return ".";
    return directory == "none" ? "" : directory;
}

bool
ResultsSink::writeFile(const std::string &directory,
                       std::string *pathOut) const
{
    std::string dir = outputDirectory(directory);
    if (dir.empty())
        return false;
    if (dir.back() != '/')
        dir += '/';
    const std::string path = dir + fileName();
    std::ofstream out(path);
    if (!out)
        return false;
    out << toJson(/*includeVolatile=*/!deterministicFile_).dump(2) << '\n';
    if (!out)
        return false;
    if (pathOut)
        *pathOut = path;
    return true;
}

bool
ResultsSink::writeTraceFile(const std::string &directory,
                            std::string *pathOut) const
{
    std::string dir = outputDirectory(directory);
    if (dir.empty())
        return false;
    if (dir.back() != '/')
        dir += '/';
    const std::string path = dir + traceFileName();
    std::ofstream out(path);
    if (!out)
        return false;

    Json header = Json::object();
    header.set("schema", "pdp-bench-trace/v1");
    header.set("experiment", experiment_);
    header.set("git", PDP_GIT_DESCRIBE);
    out << header.dump() << '\n';

    for (const JobRecord &record : records_) {
        const telemetry::RunTelemetry *run = telemetryOf(record.outcome);
        if (!run)
            continue;
        for (const telemetry::TraceEvent &event : run->events) {
            // Deterministic trace files drop wall-clock-bearing events
            // (phase timers) so CI can byte-compare TRACE files across
            // worker counts — same rule as the BENCH document.
            if (deterministicFile_ && event.isVolatile)
                continue;
            Json line = Json::object();
            line.set("job", record.key);
            setEvent(line, event);
            out << line.dump() << '\n';
        }
    }
    if (!out)
        return false;
    if (pathOut)
        *pathOut = path;
    return true;
}

} // namespace runner
} // namespace pdp
