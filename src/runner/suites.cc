#include "runner/suites.h"

#include <optional>
#include <ostream>
#include <type_traits>
#include <variant>

#include "cache/hierarchy.h"
#include "check/flight_recorder.h"
#include "core/pdp_policy.h"
#include "runner/suite_helpers.h"
#include "runner/thread_pool.h"
#include "sim/lockstep_sweep.h"
#include "sim/policy_factory.h"
#include "sim/static_pd_search.h"
#include "telemetry/metrics.h"
#include "trace/spec_suite.h"
#include "trace/workload.h"
#include "util/table.h"

namespace pdp
{
namespace runner
{

RecordLookup::RecordLookup(const std::vector<JobRecord> &records)
{
    for (const JobRecord &record : records)
        byKey_.emplace(record.key, &record);
}

const JobRecord *
RecordLookup::find(const std::string &key) const
{
    const auto it = byKey_.find(key);
    return it == byKey_.end() ? nullptr : it->second;
}

const SimResult *
RecordLookup::single(const std::string &key) const
{
    const JobRecord *record = find(key);
    if (!record || record->status == JobStatus::Failed ||
        !record->outcome.single)
        return nullptr;
    return &*record->outcome.single;
}

const MultiCoreResult *
RecordLookup::multi(const std::string &key) const
{
    const JobRecord *record = find(key);
    if (!record || record->status == JobStatus::Failed ||
        !record->outcome.multi)
        return nullptr;
    return &*record->outcome.multi;
}

const ServiceResult *
RecordLookup::service(const std::string &key) const
{
    const JobRecord *record = find(key);
    if (!record || record->status == JobStatus::Failed ||
        !record->outcome.service)
        return nullptr;
    return &*record->outcome.service;
}

std::optional<double>
RecordLookup::metric(const std::string &key, const std::string &name) const
{
    const JobRecord *record = find(key);
    if (!record || record->status == JobStatus::Failed)
        return std::nullopt;
    const auto it = record->outcome.metrics.find(name);
    if (it == record->outcome.metrics.end())
        return std::nullopt;
    return it->second;
}

std::vector<std::string>
RecordLookup::keys() const
{
    std::vector<std::string> keys;
    keys.reserve(byKey_.size());
    for (const auto &[key, record] : byKey_)
        keys.push_back(key);
    return keys;
}

Job
singleCoreJob(std::string key, std::string benchmark, PolicyFactory makePol,
              const SimConfig &config)
{
    Job job;
    job.key = std::move(key);
    job.seed = seedFor(benchmark);
    SingleCoreCell cell{std::move(benchmark), std::move(makePol), config};
    job.run = [cell](const JobContext &ctx) {
        auto gen = SpecSuite::make(cell.benchmark, ctx.seed);
        Hierarchy hierarchy = makeHierarchy(cell.config, cell.makePolicy());
        JobOutcome outcome;
        outcome.single = runSingleCore(*gen, hierarchy, cell.config);
        return outcome;
    };
    job.cell = std::move(cell);
    return job;
}

Job
singleCoreJob(std::string key, std::string benchmark, std::string policySpec,
              const SimConfig &config)
{
    return singleCoreJob(
        std::move(key), std::move(benchmark),
        [policySpec = std::move(policySpec)] { return makePolicy(policySpec); },
        config);
}

Job
multiCoreJob(std::string key, WorkloadSpec workload, std::string policySpec,
             const MultiCoreConfig &config)
{
    Job job;
    job.key = std::move(key);
    job.seed = seedFor(workload.label());
    MultiCoreCell cell{std::move(workload), std::move(policySpec), config};
    job.run = [cell](const JobContext &) {
        JobOutcome outcome;
        outcome.multi = runMultiCore(cell.workload, cell.policy, cell.config);
        return outcome;
    };
    job.cell = std::move(cell);
    return job;
}

Job
serviceJob(std::string key, std::vector<TenantSpec> tenants,
           std::string policySpec, const ServiceConfig &config,
           uint64_t seed)
{
    Job job;
    job.key = std::move(key);
    job.seed = seed;
    job.run = [tenants = std::move(tenants),
               policySpec = std::move(policySpec),
               config](const JobContext &ctx) {
        JobOutcome outcome;
        outcome.service = runService(tenants, policySpec, config, ctx.seed);
        return outcome;
    };
    return job;
}

telemetry::TelemetryConfig
telemetryConfig(const SuiteOptions &options)
{
    telemetry::TelemetryConfig config;
    config.enabled =
        options.telemetry || options.trace || options.obsSampleRate > 0.0;
    config.traceEvents = options.trace || options.obsSampleRate > 0.0;
    config.spanSampleRate = options.obsSampleRate;
    config.perfCounters = options.perfCounters;
    return config;
}

MultiCoreConfig
scaledMultiCoreConfig(const SuiteOptions &options, unsigned cores)
{
    MultiCoreConfig config;
    config.cores = cores;
    config = config.scaled(options.scale);
    config.telemetry = telemetryConfig(options);
    PDP_CHECK(config.accessesPerThread > 0, "--scale ", options.scale,
              " leaves the ", cores, "-core runs no measured access");
    return config;
}

SimConfig
scaledConfig(const SuiteOptions &options, uint64_t accesses, uint64_t warmup)
{
    SimConfig config;
    config.accesses = accesses;
    config.warmup = warmup;
    config.telemetry = telemetryConfig(options);
    config = config.scaled(options.scale);
    PDP_CHECK(config.accesses > 0, "--scale ", options.scale,
              " leaves a ", accesses, "-access run no measured access");
    return config;
}

GridBest
bestOverPdGrid(const RecordLookup &records, const std::string &prefix)
{
    const std::vector<uint32_t> grid = defaultPdGrid();
    std::vector<const SimResult *> results;
    for (uint32_t pd : grid)
        results.push_back(records.single(prefix + std::to_string(pd)));
    const size_t best = fewestMisses(results);
    if (best == results.size())
        return {};
    return {grid[best], results[best]};
}

namespace
{

// ---------------------------------------------------------------------------
// smoke — a minutes-at-scale-1, seconds-at-0.02 CI sanity grid.

std::vector<Job>
buildSmoke(const SuiteOptions &options)
{
    const SimConfig config =
        scaledConfig(options, 1'500'000, 500'000);
    std::vector<Job> jobs;

    const std::vector<std::pair<std::string, std::string>> cells = {
        {"450.soplex", "DIP"},       {"450.soplex", "PDP-3"},
        {"436.cactusADM", "DRRIP"},  {"436.cactusADM", "PDP-3"},
        {"436.cactusADM", "SPDP-B:64"},
    };
    for (const auto &[bench, policy] : cells)
        jobs.push_back(singleCoreJob("smoke/" + bench + "/" + policy, bench,
                                     policy, config));

    // A tiny static-PD grid (the embarrassingly parallel shape of Fig. 4).
    for (uint32_t pd : {32u, 64u, 128u})
        jobs.push_back(singleCoreJob(
            "smoke/450.soplex/SPDP-B:" + std::to_string(pd), "450.soplex",
            [pd] { return makeSpdpB(pd); }, config));

    // One 2-core shared-LLC job.
    const MultiCoreConfig mc = scaledMultiCoreConfig(options, 2);
    const auto names = SpecSuite::multiCoreNames();
    WorkloadSpec workload;
    workload.benchmarks = {names.at(0), names.at(1)};
    jobs.push_back(
        multiCoreJob("smoke/multi/w0/PDP-2", workload, "PDP-2", mc));
    return jobs;
}

} // namespace

const std::vector<Suite> &
allSuites()
{
    static const std::vector<Suite> suites = [] {
        std::vector<Suite> all = policySuites();
        for (Suite &suite : figureSuites())
            all.push_back(std::move(suite));
        all.push_back(hotpathSuite());
        // No figure report: the generic per-job table from runSuite() is
        // the whole story for a sanity grid.
        all.push_back({"smoke",
                       "small single-/multi-core grid for CI smoke runs",
                       buildSmoke, nullptr});
        all.push_back(serviceSuite());
        for (Suite &suite : modelSuites())
            all.push_back(std::move(suite));
        return all;
    }();
    return suites;
}

const Suite *
findSuite(const std::string &name)
{
    for (const Suite &suite : allSuites())
        if (suite.name == name)
            return &suite;
    return nullptr;
}

namespace
{

void
genericReport(std::ostream &out, const std::vector<JobRecord> &records)
{
    Table table({"job", "status", "seconds", "ipc", "mpki", "W/T/H",
                 "svc hit/slo"});
    for (const JobRecord &record : records) {
        std::string ipc = "-", mpki = "-", wth = "-", svc = "-";
        if (record.outcome.single) {
            ipc = Table::num(record.outcome.single->ipc);
            mpki = Table::num(record.outcome.single->mpki);
        }
        if (record.outcome.multi) {
            const MultiCoreResult &m = *record.outcome.multi;
            wth = Table::num(m.weightedIpc) + "/" +
                Table::num(m.throughput) + "/" +
                Table::num(m.harmonicFairness);
        }
        if (record.outcome.service) {
            const ServiceResult &s = *record.outcome.service;
            unsigned met = 0;
            for (const TenantOutcome &t : s.tenants)
                met += (t.hitRateSloMet && t.latencySloMet) ? 1 : 0;
            svc = Table::num(s.aggregateHitRate, 3) + "/" +
                std::to_string(met) + "of" +
                std::to_string(s.tenants.size());
        }
        table.addRow({record.key, toString(record.status),
                      Table::num(record.seconds, 2), ipc, mpki, wth, svc});
    }
    table.print(out);
}

bool
sameStream(const SingleCoreCell &a, const SingleCoreCell &b)
{
    return a.benchmark == b.benchmark;
}

bool
sameStream(const MultiCoreCell &a, const MultiCoreCell &b)
{
    return a.workload == b.workload;
}

/** Whether `next` may join the sweep that `first` opens: cells of one
 *  kind over the same stream and config, and nothing observing the
 *  global access order.  src/sim would run an observed sweep one cell
 *  at a time anyway, so observed cells stay apart only to spread over
 *  workers and fail alone. */
bool
sharesDecode(const Job &first, const Job &next)
{
    if (!first.cell || !next.cell || first.seed != next.seed ||
        first.cell->index() != next.cell->index())
        return false;
    return std::visit(
        [&next](const auto &a) {
            const auto &b =
                std::get<std::decay_t<decltype(a)>>(*next.cell);
            return sameStream(a, b) && a.config == b.config &&
                !observesGlobalOrder(a.config);
        },
        *first.cell);
}

/** The results of `cells`, which share one decode, from one lockstep
 *  sweep, under their `keys`, in cell order. */
std::vector<KeyedOutcome>
runSweep(const std::vector<std::string> &keys,
         const std::vector<SimCell> &cells, const JobContext &ctx)
{
    std::vector<KeyedOutcome> outcomes(cells.size());
    for (size_t c = 0; c < cells.size(); ++c)
        outcomes[c].key = keys[c];
    if (const auto *first = std::get_if<SingleCoreCell>(&cells[0])) {
        std::vector<PolicyFactory> factories;
        for (const SimCell &cell : cells)
            factories.push_back(std::get<SingleCoreCell>(cell).makePolicy);
        auto gen = SpecSuite::make(first->benchmark, ctx.seed);
        std::vector<SimResult> results = runSingleCoreLockstep(
            *gen, first->config, factories, ctx.laneThreads);
        for (size_t c = 0; c < cells.size(); ++c)
            outcomes[c].outcome.single = std::move(results[c]);
    } else {
        const MultiCoreCell &mix = std::get<MultiCoreCell>(cells[0]);
        std::vector<std::string> policies;
        for (const SimCell &cell : cells)
            policies.push_back(std::get<MultiCoreCell>(cell).policy);
        std::vector<MultiCoreResult> results = runMultiCoreLockstep(
            mix.workload, policies, mix.config, ctx.laneThreads);
        for (size_t c = 0; c < cells.size(); ++c)
            outcomes[c].outcome.multi = std::move(results[c]);
    }
    return outcomes;
}

/** One lockstep sweep over the cells jobs[begin, end), with one soft
 *  `timeout` budget per cell. */
Job
sweepJob(const std::vector<Job> &jobs, size_t begin, size_t end,
         double timeout)
{
    Job job;
    job.key = jobs[begin].key + ".." + jobs[end - 1].key;
    job.seed = jobs[begin].seed;
    job.timeoutSeconds = timeout * (end - begin);
    std::vector<std::string> keys;
    std::vector<SimCell> cells;
    for (size_t c = begin; c < end; ++c) {
        keys.push_back(jobs[c].key);
        cells.push_back(*jobs[c].cell);
    }
    job.runMany = [keys = std::move(keys),
                   cells = std::move(cells)](const JobContext &ctx) {
        return runSweep(keys, cells, ctx);
    };
    return job;
}

} // namespace

std::vector<Job>
selectJobs(const Suite &suite, const SuiteOptions &options)
{
    std::vector<Job> jobs = suite.buildJobs(options);
    std::erase_if(jobs, [&](const Job &job) {
        return job.key.find(options.filter) == std::string::npos;
    });
    std::vector<Job> selected;
    for (size_t begin = 0, end = 0; begin < jobs.size(); begin = end) {
        end = begin + 1;
        while (end < jobs.size() && sharesDecode(jobs[begin], jobs[end]))
            ++end;
        selected.push_back(
            end - begin == 1
                ? std::move(jobs[begin])
                : sweepJob(jobs, begin, end, options.timeoutSeconds));
    }
    return selected;
}

int
runSuite(const Suite &suite, const SuiteOptions &options, std::ostream &out)
{
    ProgressReporter &reporter = ProgressReporter::global();
    if (options.verbose)
        reporter.setVerbose(true);

    const std::vector<Job> jobs = selectJobs(suite, options);

    ResultsSink sink(suite.name);
    sink.setScale(options.scale);
    sink.setDeterministicFile(options.deterministicJson);

    ExecutorOptions eopts;
    eopts.workers = options.workers;
    eopts.defaultTimeoutSeconds = options.timeoutSeconds;
    eopts.perfCounters = options.perfCounters;
    eopts.reporter = &reporter;
    eopts.onComplete = [&sink](const JobRecord &record) {
        sink.add(record);
    };
    ThreadPoolExecutor executor(eopts);
    sink.setWorkers(executor.workers());

    // Arm the fault flight recorder into the suite's output directory
    // for the duration of the run (scoped: unit tests that drive
    // throwing jobs directly still see the process default, disarmed).
    // When JSON output is disabled there is nowhere to dump, so the
    // recorder stays disarmed too.
    const std::string outDir = ResultsSink::outputDirectory(options.jsonDir);
    std::optional<check::ScopedFlightRecorder> flightArm;
    if (!outDir.empty())
        flightArm.emplace(outDir);

    reporter.beginBatch(suite.name, jobs.size(), executor.workers());
    const std::vector<JobRecord> records = executor.run(jobs);

    if (options.filter.empty() && suite.report) {
        suite.report(out, RecordLookup(records));
    } else {
        out << "==== " << suite.name;
        if (!options.filter.empty())
            out << " (filtered: \"" << options.filter << "\")";
        out << " ====\n";
        genericReport(out, records);
    }

    int notOk = 0;
    for (const JobRecord &record : records) {
        if (record.status == JobStatus::Ok)
            continue;
        ++notOk;
        out << "[runner] " << toString(record.status) << ": " << record.key
            << (record.error.empty() ? "" : " — " + record.error) << "\n";
    }

    if (options.telemetry || options.trace)
        sink.setRegistrySnapshot(
            telemetry::MetricsRegistry::global().snapshot());

    // A result file that cannot be written fails the run: its jobs ran,
    // but nobody can read what they found.
    int unwritten = 0;
    auto reportWrite = [&](bool written, const std::string &path,
                           const std::string &name) {
        if (written) {
            out << "[runner] wrote " << path << "\n";
        } else {
            out << "[runner] error: could not write " << name << " into "
                << outDir << "\n";
            ++unwritten;
        }
    };
    if (!outDir.empty()) {
        std::string path;
        reportWrite(sink.writeFile(outDir, &path), path, sink.fileName());
        if (options.trace)
            reportWrite(sink.writeTraceFile(outDir, &path), path,
                        sink.traceFileName());
    }
    out << "[runner] " << suite.name << ": "
        << (records.size() - static_cast<size_t>(notOk)) << "/"
        << records.size() << " job(s) ok on " << executor.workers()
        << " worker(s)\n";
    return notOk + unwritten;
}

} // namespace runner
} // namespace pdp
