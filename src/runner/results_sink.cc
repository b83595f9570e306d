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
    if (result.auditsRun) {
        j.set("audits_run", result.auditsRun);
        j.set("audit_violations", result.auditViolations);
    }
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
    if (result.auditsRun) {
        j.set("audits_run", result.auditsRun);
        j.set("audit_violations", result.auditViolations);
    }
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
    if (result.auditsRun) {
        j.set("audits_run", result.auditsRun);
        j.set("audit_violations", result.auditViolations);
    }
    return j;
}

namespace
{

Json
toJson(const telemetry::Snapshot &snapshot)
{
    Json j = Json::object();
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
    return j;
}

Json
toJson(const telemetry::TraceEvent &event)
{
    Json j = Json::object();
    j.set("type", event.type);
    j.set("access", event.accessCount);
    Json fields = Json::object();
    for (const auto &[name, value] : event.fields)
        fields.set(name, value);
    j.set("fields", std::move(fields));
    return j;
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
        const Json policy = toJson(rec.policy);
        e.set("policy", *policy.find("policy"));
        if (const Json *series = policy.find("series"))
            e.set("series", *series);
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
            events.push(toJson(event));
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
    const telemetry::RunTelemetry *run = nullptr;
    if (record.outcome.single && record.outcome.single->telemetry)
        run = record.outcome.single->telemetry.get();
    else if (record.outcome.multi && record.outcome.multi->telemetry)
        run = record.outcome.multi->telemetry.get();
    else if (record.outcome.service && record.outcome.service->telemetry)
        run = record.outcome.service->telemetry.get();
    if (run)
        j.set("telemetry", toJson(*run, includeVolatile));
    return j;
}

int
validateResultsDocument(const Json &doc, std::string *error)
{
    const auto fail = [&](const std::string &message) {
        if (error)
            *error = message;
        return 0;
    };
    if (!doc.isObject())
        return fail("document is not an object");
    const Json *schema = doc.find("schema");
    if (!schema || !schema->isString())
        return fail("missing schema string");
    int version = 0;
    if (schema->asString() == kResultsSchemaV1)
        version = 1;
    else if (schema->asString() == kResultsSchemaV2)
        version = 2;
    else
        return fail("unknown schema: " + schema->asString());
    const Json *experiment = doc.find("experiment");
    if (!experiment || !experiment->isString())
        return fail("missing experiment string");
    const Json *jobs = doc.find("jobs");
    if (!jobs || !jobs->isArray())
        return fail("missing jobs array");
    const Json *count = doc.find("job_count");
    if (!count || !count->isNumber() || count->asUint() != jobs->size())
        return fail("job_count does not match the jobs array");
    for (size_t i = 0; i < jobs->size(); ++i) {
        const Json &job = jobs->at(i);
        const std::string where = "jobs[" + std::to_string(i) + "]";
        if (!job.isObject())
            return fail(where + " is not an object");
        const Json *key = job.find("key");
        if (!key || !key->isString())
            return fail(where + ": missing key");
        if (!job.find("seed") || !job.find("status"))
            return fail(where + ": missing seed/status");
        if (const Json *service = job.find("service")) {
            if (version < 2)
                return fail(where + ": service section in a v1 document");
            if (!service->isObject() || !service->find("policy"))
                return fail(where + ": service section without a policy");
            const Json *tenants = service->find("tenants");
            if (!tenants || !tenants->isArray())
                return fail(where + ": service without a tenants array");
            for (size_t t = 0; t < tenants->size(); ++t) {
                const Json &tenant = tenants->at(t);
                if (!tenant.isObject() || !tenant.find("name") ||
                    !tenant.find("hit_rate") ||
                    !tenant.find("occupancy_drift") ||
                    !tenant.find("p99_miss_cycles"))
                    return fail(where + ": malformed tenant " +
                                std::to_string(t));
            }
        }
        const Json *run = job.find("telemetry");
        if (!run)
            continue;
        if (version < 2)
            return fail(where + ": telemetry section in a v1 document");
        if (!run->isObject() || !run->find("interval"))
            return fail(where + ": telemetry without an interval");
        const Json *epochs = run->find("epochs");
        if (!epochs || !epochs->isArray())
            return fail(where + ": telemetry without an epochs array");
        for (size_t e = 0; e < epochs->size(); ++e) {
            const Json &epoch = epochs->at(e);
            if (!epoch.isObject() || !epoch.find("access") ||
                !epoch.find("policy"))
                return fail(where + ": malformed epoch " +
                            std::to_string(e));
        }
    }
    return version;
}

ResultsSink::ResultsSink(std::string experiment)
    : experiment_(std::move(experiment))
{
}

void
ResultsSink::setScale(double scale)
{
    std::lock_guard<std::mutex> lock(mutex_);
    scale_ = scale;
}

void
ResultsSink::setWorkers(unsigned workers)
{
    std::lock_guard<std::mutex> lock(mutex_);
    workers_ = workers;
}

void
ResultsSink::setRegistrySnapshot(std::vector<telemetry::MetricSnapshot> snap)
{
    std::lock_guard<std::mutex> lock(mutex_);
    registry_ = std::move(snap);
}

void
ResultsSink::setDeterministicFile(bool on)
{
    std::lock_guard<std::mutex> lock(mutex_);
    deterministicFile_ = on;
}

void
ResultsSink::add(JobRecord record)
{
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(record));
}

size_t
ResultsSink::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

std::vector<JobRecord>
ResultsSink::sortedRecords() const
{
    std::vector<JobRecord> records;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        records = records_;
    }
    std::sort(records.begin(), records.end(),
              [](const JobRecord &a, const JobRecord &b) {
                  return a.key < b.key;
              });
    return records;
}

Json
ResultsSink::toJson(bool includeVolatile) const
{
    const std::vector<JobRecord> records = sortedRecords();
    double scale = 1.0;
    unsigned workers = 0;
    std::vector<telemetry::MetricSnapshot> registry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        scale = scale_;
        workers = workers_;
        registry = registry_;
    }

    Json doc = Json::object();
    doc.set("schema", kResultsSchemaV2);
    doc.set("experiment", experiment_);
    doc.set("git", PDP_GIT_DESCRIBE);
    doc.set("scale", scale);
    if (includeVolatile)
        doc.set("workers", workers);
    doc.set("job_count", static_cast<uint64_t>(records.size()));
    Json jobs = Json::array();
    for (const JobRecord &record : records)
        jobs.push(runner::toJson(record, includeVolatile));
    doc.set("jobs", std::move(jobs));
    // Registry totals are process-global (they accumulate across every
    // suite the process ran), so they only belong in the volatile form.
    if (includeVolatile && !registry.empty()) {
        Json reg = Json::object();
        for (const telemetry::MetricSnapshot &metric : registry) {
            if (metric.kind == telemetry::MetricKind::Gauge)
                reg.set(metric.name, metric.value);
            else
                reg.set(metric.name, metric.count);
        }
        doc.set("registry", std::move(reg));
    }
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
    return directory == "none" || directory == "0" ? "" : directory;
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
    bool deterministic = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        deterministic = deterministicFile_;
    }
    const std::string path = dir + fileName();
    std::ofstream out(path);
    if (!out)
        return false;
    out << toJson(/*includeVolatile=*/!deterministic).dump(2) << '\n';
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
    bool deterministic = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        deterministic = deterministicFile_;
    }
    const std::string path = dir + traceFileName();
    std::ofstream out(path);
    if (!out)
        return false;

    Json header = Json::object();
    header.set("schema", "pdp-bench-trace/v1");
    header.set("experiment", experiment_);
    header.set("git", PDP_GIT_DESCRIBE);
    out << header.dump() << '\n';

    for (const JobRecord &record : sortedRecords()) {
        const telemetry::RunTelemetry *run = nullptr;
        if (record.outcome.single && record.outcome.single->telemetry)
            run = record.outcome.single->telemetry.get();
        else if (record.outcome.multi && record.outcome.multi->telemetry)
            run = record.outcome.multi->telemetry.get();
        else if (record.outcome.service && record.outcome.service->telemetry)
            run = record.outcome.service->telemetry.get();
        if (!run)
            continue;
        for (const telemetry::TraceEvent &event : run->events) {
            // Deterministic trace files drop wall-clock-bearing events
            // (phase timers) so CI can byte-compare TRACE files across
            // worker counts — same rule as the BENCH document.
            if (deterministic && event.isVolatile)
                continue;
            Json line = Json::object();
            line.set("job", record.key);
            line.set("type", event.type);
            line.set("access", event.accessCount);
            Json fields = Json::object();
            for (const auto &[name, value] : event.fields)
                fields.set(name, value);
            line.set("fields", std::move(fields));
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
