#include "runner/suites.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <ostream>
#include <thread>
#include <type_traits>
#include <variant>

#include "cache/hierarchy.h"
#include "check/flight_recorder.h"
#include "cache/reference_cache.h"
#include "core/pdp_policy.h"
#include "model/analytic_model.h"
#include "policies/rrip.h"
#include "runner/thread_pool.h"
#include "service/scenario.h"
#include "sim/lockstep_sweep.h"
#include "sim/policy_factory.h"
#include "sim/static_pd_search.h"
#include "telemetry/metrics.h"
#include "trace/rdd_fingerprint.h"
#include "trace/spec_suite.h"
#include "trace/workload.h"
#include "util/stats.h"
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

namespace
{

/** The per-run telemetry knobs a suite's options ask for. */
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

/** The `cores`-core config at options.scale; like scaledConfig, it
 *  refuses a scale that leaves a thread no measured access. */
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

} // namespace

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

namespace
{

/** Miss-minimizing point of an already-run static-PD grid, picked by
 *  pdp::fewestMisses as pdp::bestStaticPd picks its own. */
struct GridBest
{
    uint32_t pd = 0;
    const SimResult *result = nullptr;
};

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

// ---------------------------------------------------------------------------
// fig10_single_core — Fig. 10: single-core policies vs DIP.

const std::vector<std::string> kFig10Policies = {
    "DRRIP", "EELRU", "SDP", "PDP-2", "PDP-3", "PDP-8",
};

std::vector<Job>
buildFig10(const SuiteOptions &options)
{
    const SimConfig config = scaledConfig(options);
    std::vector<Job> jobs;
    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const std::string prefix = "fig10/" + bench + "/";
        jobs.push_back(singleCoreJob(prefix + "DIP", bench, "DIP", config));
        for (const std::string &policy : kFig10Policies)
            jobs.push_back(
                singleCoreJob(prefix + policy, bench, policy, config));
        for (uint32_t pd : defaultPdGrid())
            jobs.push_back(singleCoreJob(
                prefix + "SPDP-B:" + std::to_string(pd), bench,
                [pd] { return makeSpdpB(pd); }, config));
    }
    return jobs;
}

void
reportFig10(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 10: single-core policies (normalized to DIP) "
           "====\n\n";

    Table miss_table([] {
        std::vector<std::string> h = {"benchmark"};
        for (const auto &p : kFig10Policies)
            h.push_back(p);
        h.push_back("SPDP-B");
        return h;
    }());
    Table ipc_table = miss_table;
    Table bypass_table({"benchmark", "SDP", "PDP-2", "PDP-3", "PDP-8",
                        "SPDP-B"});

    std::map<std::string, Accumulator> miss_avg, ipc_avg, bypass_avg;

    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const std::string prefix = "fig10/" + bench + "/";
        const bool in_average = bench != "483.xalancbmk.1" &&
                                bench != "483.xalancbmk.2";

        const SimResult *dip = records.single(prefix + "DIP");
        if (!dip) {
            out << "(skipping " << bench << ": DIP baseline missing)\n";
            continue;
        }

        std::vector<std::string> miss_row = {bench};
        std::vector<std::string> ipc_row = {bench};
        std::vector<std::string> bypass_row = {bench};

        auto account = [&](const std::string &policy, const SimResult *r,
                           bool track_bypass) {
            if (!r) {
                miss_row.push_back("n/a");
                ipc_row.push_back("n/a");
                if (track_bypass)
                    bypass_row.push_back("n/a");
                return;
            }
            const double miss_red = dip->llcMisses
                ? 1.0 - static_cast<double>(r->llcMisses) / dip->llcMisses
                : 0.0;
            const double ipc_imp =
                dip->ipc > 0 ? r->ipc / dip->ipc - 1.0 : 0.0;
            miss_row.push_back(Table::pct(miss_red));
            ipc_row.push_back(Table::pct(ipc_imp));
            if (track_bypass)
                bypass_row.push_back(Table::upct(r->bypassFraction));
            if (in_average) {
                miss_avg[policy].add(miss_red);
                ipc_avg[policy].add(ipc_imp);
                if (track_bypass)
                    bypass_avg[policy].add(r->bypassFraction);
            }
        };

        for (const std::string &policy : kFig10Policies)
            account(policy, records.single(prefix + policy),
                    policy == "SDP" || policy.rfind("PDP", 0) == 0);

        // SPDP-B with the best static PD for this benchmark.
        const GridBest spdp = bestOverPdGrid(records, prefix + "SPDP-B:");
        account("SPDP-B", spdp.result, true);
        if (spdp.result)
            miss_row.back() += " (pd=" + std::to_string(spdp.pd) + ")";

        miss_table.addRow(miss_row);
        ipc_table.addRow(ipc_row);
        bypass_table.addRow(bypass_row);
    }

    auto add_average = [&](Table &table,
                           std::map<std::string, Accumulator> &avg,
                           const std::vector<std::string> &cols) {
        std::vector<std::string> row = {"AVERAGE"};
        for (const auto &c : cols)
            row.push_back(Table::pct(avg[c].mean()));
        table.addRow(row);
    };

    std::vector<std::string> all_cols = kFig10Policies;
    all_cols.push_back("SPDP-B");

    out << "--- (a) miss reduction vs DIP ---\n";
    add_average(miss_table, miss_avg, all_cols);
    miss_table.print(out);

    out << "\n--- (b) IPC improvement vs DIP ---\n";
    add_average(ipc_table, ipc_avg, all_cols);
    ipc_table.print(out);

    out << "\n--- (c) bypass fraction of LLC accesses ---\n";
    add_average(bypass_table, bypass_avg,
                {"SDP", "PDP-2", "PDP-3", "PDP-8", "SPDP-B"});
    bypass_table.print(out);

    out << "\nPaper reference (averages over the suite): DRRIP +1.5% "
           "IPC, SDP +1.6%, PDP-2 +2.9%, PDP-3 +4.2%, EELRU "
           "negative; bypass ~40%.\n";
}

// ---------------------------------------------------------------------------
// fig4_static_pdp — Fig. 4: DRRIP(best eps) vs static PDP.  Its report
// also renders Fig. 2 (the epsilon sweep) and Table 2 (the best SPDP-B
// PDs by range) from the same records.

const std::vector<unsigned> kFig4EpsDenoms = {4, 8, 16, 32, 64, 128};

/** Fig. 2's case-study benchmarks (their DRRIP-eps cells are fig4's). */
const std::vector<std::string> kFig2Benches = {
    "403.gcc", "436.cactusADM", "464.h264ref", "483.xalancbmk.3"};

std::vector<Job>
buildFig4(const SuiteOptions &options)
{
    const SimConfig config = scaledConfig(options, 2'000'000, 800'000);
    std::vector<Job> jobs;
    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const std::string prefix = "fig4/" + bench + "/";
        for (unsigned denom : kFig4EpsDenoms)
            jobs.push_back(singleCoreJob(
                prefix + "DRRIP-eps:" + std::to_string(denom), bench,
                [denom] { return makeDrrip(1.0 / denom); }, config));
        for (uint32_t pd : defaultPdGrid()) {
            jobs.push_back(singleCoreJob(
                prefix + "SPDP-NB:" + std::to_string(pd), bench,
                [pd] { return makeSpdpNb(pd); }, config));
            jobs.push_back(singleCoreJob(
                prefix + "SPDP-B:" + std::to_string(pd), bench,
                [pd] { return makeSpdpB(pd); }, config));
        }
    }
    return jobs;
}

void
reportFig4(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 4: DRRIP(best eps) vs static PDP, miss "
           "reduction over DRRIP(eps=1/32) ====\n\n";

    Table table({"benchmark", "DRRIP best-eps", "SPDP-NB", "SPDP-B",
                 "best PD (NB)", "best PD (B)"});
    Accumulator avg_eps, avg_nb, avg_b;

    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const std::string prefix = "fig4/" + bench + "/";

        // Baseline: DRRIP at the paper's default epsilon.
        const SimResult *base = records.single(prefix + "DRRIP-eps:32");
        if (!base) {
            out << "(skipping " << bench << ": DRRIP baseline missing)\n";
            continue;
        }

        // DRRIP with the best epsilon of Fig. 2's sweep.
        uint64_t best_eps_misses = ~0ull;
        for (unsigned denom : kFig4EpsDenoms) {
            const SimResult *r = records.single(
                prefix + "DRRIP-eps:" + std::to_string(denom));
            if (r)
                best_eps_misses = std::min(best_eps_misses, r->llcMisses);
        }

        const GridBest nb = bestOverPdGrid(records, prefix + "SPDP-NB:");
        const GridBest bp = bestOverPdGrid(records, prefix + "SPDP-B:");
        if (!nb.result || !bp.result) {
            out << "(skipping " << bench << ": static-PD grid missing)\n";
            continue;
        }

        auto reduction = [&](uint64_t misses) {
            return base->llcMisses
                ? 1.0 - static_cast<double>(misses) / base->llcMisses
                : 0.0;
        };
        const double r_eps = reduction(best_eps_misses);
        const double r_nb = reduction(nb.result->llcMisses);
        const double r_b = reduction(bp.result->llcMisses);
        avg_eps.add(r_eps);
        avg_nb.add(r_nb);
        avg_b.add(r_b);

        table.addRow({bench, Table::pct(r_eps), Table::pct(r_nb),
                      Table::pct(r_b), std::to_string(nb.pd),
                      std::to_string(bp.pd)});
    }
    table.addRow({"AVERAGE", Table::pct(avg_eps.mean()),
                  Table::pct(avg_nb.mean()), Table::pct(avg_b.mean()), "",
                  ""});
    table.print(out);

    out << "\nPaper reference: SPDP-B >= SPDP-NB >= DRRIP(best eps) "
           ">= 0 on nearly every benchmark.\n";

    // Fig. 2: the DRRIP-eps cells above, per case-study benchmark.
    out << "\n==== Fig. 2: DRRIP MPKI vs epsilon (normalized to "
           "eps=1/32) ====\n\n";
    std::vector<std::string> header = {"benchmark"};
    for (unsigned denom : kFig4EpsDenoms)
        header.push_back("1/" + std::to_string(denom));
    Table eps_table(header);
    for (const std::string &bench : kFig2Benches) {
        const std::string prefix = "fig4/" + bench + "/DRRIP-eps:";
        const SimResult *base = records.single(prefix + "32");
        std::vector<std::string> row = {bench};
        for (unsigned denom : kFig4EpsDenoms) {
            const SimResult *r =
                records.single(prefix + std::to_string(denom));
            row.push_back(r && base ? Table::num(r->mpki / base->mpki, 3)
                                    : "n/a");
        }
        eps_table.addRow(row);
    }
    eps_table.print(out);
    out << "\nPaper reference: lower-is-better; cactusADM/xalancbmk "
           "degrade as epsilon shrinks, gcc/h264ref prefer larger "
           "epsilon.\n";

    // Table 2: where the "best PD (B)" column above falls.
    out << "\n==== Table 2: distribution of optimal PDs (SPDP-B) "
           "====\n\n";
    const std::vector<std::pair<std::string, uint32_t>> ranges = {
        {"16-64", 64}, {"65-128", 128}, {"129-192", 192}, {"193-256", 256}};
    std::vector<unsigned> counts(ranges.size() + 1, 0);
    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const GridBest bp =
            bestOverPdGrid(records, "fig4/" + bench + "/SPDP-B:");
        if (!bp.result)
            continue;
        size_t r = 0;
        while (r < ranges.size() && bp.pd > ranges[r].second)
            ++r;
        ++counts[r];
    }
    Table summary({"PD range", "# benchmarks"});
    for (size_t r = 0; r < ranges.size(); ++r)
        summary.addRow({ranges[r].first, std::to_string(counts[r])});
    summary.addRow({">256", std::to_string(counts.back())});
    summary.print(out);
    out << "\nPaper reference: zero benchmarks above 256 (d_max = 256 "
           "suffices; the grid stops there); a handful above 128 (d_max "
           "= 128 would cost performance).\n";
}

// ---------------------------------------------------------------------------
// fig12_partitioning — Fig. 12: shared-cache partitioning.

const std::vector<std::string> kFig12Policies = {"UCP", "PIPP", "PDP-2",
                                                 "PDP-3"};
constexpr unsigned kFig12Workloads = 8;

std::vector<Job>
buildFig12(const SuiteOptions &options)
{
    std::vector<Job> jobs;
    for (unsigned cores : {4u, 16u}) {
        const MultiCoreConfig config = scaledMultiCoreConfig(options, cores);
        const auto workloads = randomWorkloads(kFig12Workloads, cores);
        for (unsigned w = 0; w < workloads.size(); ++w) {
            const std::string prefix = "fig12/" + std::to_string(cores) +
                "c/w" + std::to_string(w) + "/";
            jobs.push_back(multiCoreJob(prefix + "TA-DRRIP", workloads[w],
                                        "TA-DRRIP", config));
            for (const std::string &policy : kFig12Policies)
                jobs.push_back(multiCoreJob(prefix + policy, workloads[w],
                                            policy, config));
        }
    }
    return jobs;
}

void
reportFig12(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 12: shared-cache partitioning ====\n\n";

    for (unsigned cores : {4u, 16u}) {
        const auto workloads = randomWorkloads(kFig12Workloads, cores);

        out << "--- " << cores << "-core workloads (normalized to "
               "TA-DRRIP) ---\n";
        Table table(
            {"workload", "metric", "UCP", "PIPP", "PDP-2", "PDP-3"});

        std::map<std::string, Accumulator> avg_w, avg_t, avg_h;
        for (unsigned w = 0; w < workloads.size(); ++w) {
            const std::string prefix = "fig12/" + std::to_string(cores) +
                "c/w" + std::to_string(w) + "/";
            const MultiCoreResult *base = records.multi(prefix + "TA-DRRIP");
            if (!base) {
                out << "(skipping " << workloads[w].label()
                    << ": TA-DRRIP baseline missing)\n";
                continue;
            }

            std::vector<std::string> row_w = {workloads[w].label(), "W"};
            std::vector<std::string> row_t = {"", "T"};
            std::vector<std::string> row_h = {"", "H"};
            for (const std::string &policy : kFig12Policies) {
                const MultiCoreResult *r = records.multi(prefix + policy);
                if (!r) {
                    row_w.push_back("n/a");
                    row_t.push_back("n/a");
                    row_h.push_back("n/a");
                    continue;
                }
                const double wv = r->weightedIpc / base->weightedIpc - 1.0;
                const double tv = r->throughput / base->throughput - 1.0;
                const double hv =
                    r->harmonicFairness / base->harmonicFairness - 1.0;
                row_w.push_back(Table::pct(wv));
                row_t.push_back(Table::pct(tv));
                row_h.push_back(Table::pct(hv));
                avg_w[policy].add(wv);
                avg_t[policy].add(tv);
                avg_h[policy].add(hv);
            }
            table.addRow(row_w);
            table.addRow(row_t);
            table.addRow(row_h);
        }

        for (const char *metric : {"W", "T", "H"}) {
            std::vector<std::string> row = {"AVERAGE", metric};
            auto &avg = metric[0] == 'W' ? avg_w
                        : metric[0] == 'T' ? avg_t
                                           : avg_h;
            for (const std::string &policy : kFig12Policies)
                row.push_back(Table::pct(avg[policy].mean()));
            table.addRow(row);
        }
        table.print(out);
        out << '\n';
    }
    out << "Paper reference: 16-core PDP-3 partitioning +5.2% W, "
           "+6.4% T, +9.9% H over TA-DRRIP; UCP/PIPP scale poorly.\n";
}

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

// ---------------------------------------------------------------------------
// model_validation — the analytic estimator (src/model/) cross-validated
// against the simulator on the single-core workload set: fingerprint
// each benchmark once, predict a PD spread for both SPDP families plus
// LRU, simulate the same cells over one lockstep decode, and attach the
// per-point |predicted - simulated| error to every record's metrics.
// Metrics survive the deterministic JSON form, so BENCH_model_validation
// .json doubles as the model's machine-readable accuracy ledger.

/** PDs each benchmark is cross-validated at: a power spread over the
 *  static grid's range (the full 19-point grid triples the suite's cost
 *  for no extra information about model quality). */
const std::vector<uint32_t> kValidationPds = {16, 32, 64, 128, 256};

/** Fingerprint whose measured window matches one simulation config. */
RddFingerprint
suiteFingerprint(const std::string &bench, uint64_t seed,
                 const SimConfig &config)
{
    FingerprintOptions fopt;
    fopt.accesses = config.accesses;
    fopt.warmup = config.warmup;
    return fingerprintBenchmark(bench, seed, fopt);
}

/** One benchmark's validation: fingerprint once, predict every cell in
 *  microseconds, then simulate the identical cells over one lockstep
 *  decode and attach the error metrics. */
Job
modelValidationJob(const std::string &bench, const SimConfig &config)
{
    Job job;
    job.key = "model_validation/" + bench + "/lockstep";
    job.seed = seedFor(bench);
    job.runMany = [bench, config](const JobContext &ctx) {
        const std::string prefix = "model_validation/" + bench + "/";
        const RddFingerprint fp = suiteFingerprint(bench, ctx.seed, config);
        const model::AnalyticModel estimator{model::ModelConfig{}};

        struct Cell
        {
            std::string key;
            model::Prediction pred;
            bool bypass;
        };
        std::vector<Cell> cells;
        std::vector<PolicyFactory> factories;
        for (bool byp : {false, true}) {
            for (uint32_t pd : kValidationPds) {
                cells.push_back({prefix + (byp ? "SPDP-B:" : "SPDP-NB:") +
                                     std::to_string(pd),
                                 estimator.predictPdpAt(fp, pd, byp), byp});
                factories.push_back(
                    [pd, byp]() -> std::unique_ptr<ReplacementPolicy> {
                        return byp ? makeSpdpB(pd) : makeSpdpNb(pd);
                    });
            }
        }
        cells.push_back({prefix + "LRU", estimator.predictLru(fp), false});
        factories.push_back([] { return makePolicy("LRU"); });

        auto gen = SpecSuite::make(bench, ctx.seed);
        const std::vector<SimResult> results =
            runSingleCoreLockstep(*gen, config, factories, ctx.laneThreads);

        std::vector<KeyedOutcome> outcomes(results.size());
        for (size_t c = 0; c < results.size(); ++c) {
            const SimResult &r = results[c];
            outcomes[c].key = cells[c].key;
            outcomes[c].outcome.single = r;
            auto &m = outcomes[c].outcome.metrics;
            const double sim = r.llcAccesses
                ? static_cast<double>(r.llcHits) / r.llcAccesses
                : 0.0;
            m["pred_hit_rate"] = cells[c].pred.hitRate;
            m["sim_hit_rate"] = sim;
            m["abs_err"] = std::fabs(cells[c].pred.hitRate - sim);
            m["err_bar"] = cells[c].pred.errorBar;
            if (cells[c].bypass) {
                m["pred_bypass"] = cells[c].pred.bypassFraction;
                m["sim_bypass"] = r.bypassFraction;
            }
        }
        return outcomes;
    };
    return job;
}

std::vector<Job>
buildModelValidation(const SuiteOptions &options)
{
    // The window the balance model was calibrated on (tests/test_model
    // pins the committed error bounds to it).
    const SimConfig config = scaledConfig(options, 2'000'000, 600'000);
    std::vector<Job> jobs;
    for (const std::string &bench : SpecSuite::singleCoreNames())
        jobs.push_back(modelValidationJob(bench, config));
    return jobs;
}

void
reportModelValidation(std::ostream &out, const RecordLookup &records)
{
    out << "==== model_validation: analytic estimator vs simulator "
           "====\n\n";

    Table table({"benchmark", "cells", "mean |err|", "worst |err|",
                 "worst cell", "err bar", "LRU |err|"});
    Accumulator all_err;
    double suite_worst = 0.0;
    std::string suite_worst_cell = "-";

    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const std::string prefix = "model_validation/" + bench + "/";
        Accumulator errs;
        double worst = 0.0, worst_bar = 0.0;
        std::string worst_cell = "-";
        int cells = 0;
        const auto account = [&](const std::string &cell) {
            const std::optional<double> abs_err =
                records.metric(prefix + cell, "abs_err");
            if (!abs_err)
                return;
            const double err = *abs_err;
            const double bar =
                records.metric(prefix + cell, "err_bar").value_or(0.0);
            ++cells;
            errs.add(err);
            all_err.add(err);
            if (err > worst) {
                worst = err;
                worst_bar = bar;
                worst_cell = cell;
            }
            if (err > suite_worst) {
                suite_worst = err;
                suite_worst_cell = bench + "/" + cell;
            }
        };
        for (uint32_t pd : kValidationPds) {
            account("SPDP-NB:" + std::to_string(pd));
            account("SPDP-B:" + std::to_string(pd));
        }
        const std::optional<double> lru_err =
            records.metric(prefix + "LRU", "abs_err");
        if (lru_err)
            all_err.add(*lru_err);
        if (cells == 0 && !lru_err) {
            out << "(skipping " << bench << ": no records)\n";
            continue;
        }
        table.addRow({bench, std::to_string(cells),
                      Table::num(errs.mean(), 3), Table::num(worst, 3),
                      worst_cell, Table::num(worst_bar, 3),
                      lru_err ? Table::num(*lru_err, 3) : "-"});
    }
    table.print(out);

    out << "\nsuite mean |err| = " << Table::num(all_err.mean(), 3)
        << ", worst = " << Table::num(suite_worst, 3) << " ("
        << suite_worst_cell << ")\n"
        << "err bar = fingerprint mass beyond the evaluated reach; "
           "tests/test_model pins the committed per-point bounds.\n";
}

// ---------------------------------------------------------------------------
// explore — the pruned design-space explorer: the analytic model ranks
// the full static-PD grid per SPDP family in microseconds, and only the
// top-K contenders (plus one seeded audit cell from the pruned tail)
// reach the simulator.  Without --explore the suite simulates the
// exhaustive grid under the identical record keys, so the two modes
// diff directly — same winner, a fraction of the simulations.

const std::vector<std::string> kExploreBenches = {
    "403.gcc",    "434.zeusmp", "450.soplex",
    "456.hmmer",  "464.h264ref", "482.sphinx3",
};

const char *
exploreFamily(bool bypass)
{
    return bypass ? "SPDP-B:" : "SPDP-NB:";
}

/** One grid cell of an explore plan. */
struct ExploreCell
{
    bool bypass = false;
    uint32_t pd = 0;
    /** The model's predicted hit rate for this cell. */
    double predicted = 0.0;
    /** True when the cell was chosen from the pruned tail as the audit
     *  sample rather than by rank. */
    bool audit = false;
};

/** The model's pruning decision for one benchmark. */
struct ExplorePlan
{
    /** Cells to simulate, in grid order (NB ascending, then B). */
    std::vector<ExploreCell> chosen;
    /** Predicted winner per family ([0] = NB, [1] = B). */
    uint32_t predBestPd[2] = {0, 0};
    double predBestHit[2] = {0.0, 0.0};
    /** Full design-space size the ranking covered. */
    size_t gridCells = 0;
    /** The fingerprint's tail mass as an error bar (same for every
     *  cell of one benchmark). */
    double errorBar = 0.0;
};

/**
 * Rank the full (family x PD) grid analytically and keep the top-K per
 * family plus one deterministic audit pick from the pruned tail.  Ties
 * in predicted hit rate break toward the lower PD (stable sort over the
 * ascending grid), so the plan is identical on every worker count.
 */
ExplorePlan
planExplore(const RddFingerprint &fp, unsigned top_k, uint64_t audit_seed)
{
    const std::vector<uint32_t> grid = defaultPdGrid();
    const model::AnalyticModel estimator{model::ModelConfig{}};

    ExplorePlan plan;
    plan.gridCells = 2 * grid.size();
    std::vector<ExploreCell> all;
    for (bool byp : {false, true}) {
        std::vector<ExploreCell> family;
        for (uint32_t pd : grid) {
            const model::Prediction p =
                estimator.predictPdpAt(fp, pd, byp);
            family.push_back({byp, pd, p.hitRate, false});
            plan.errorBar = p.errorBar;
        }
        std::stable_sort(family.begin(), family.end(),
                         [](const ExploreCell &a, const ExploreCell &b) {
                             return a.predicted > b.predicted;
                         });
        plan.predBestPd[byp ? 1 : 0] = family.front().pd;
        plan.predBestHit[byp ? 1 : 0] = family.front().predicted;
        for (size_t i = 0; i < family.size() && i < top_k; ++i)
            plan.chosen.push_back(family[i]);
        all.insert(all.end(), family.begin(), family.end());
    }

    // One audit cell from the pruned tail keeps the pruning honest: a
    // seeded but deterministic pick that competes against the chosen
    // contenders in the report and the winner checks.
    const auto gridOrder = [](const ExploreCell &a, const ExploreCell &b) {
        return a.bypass != b.bypass ? !a.bypass : a.pd < b.pd;
    };
    std::vector<ExploreCell> pruned;
    for (const ExploreCell &cell : all) {
        bool kept = false;
        for (const ExploreCell &c : plan.chosen)
            kept = kept || (c.bypass == cell.bypass && c.pd == cell.pd);
        if (!kept)
            pruned.push_back(cell);
    }
    std::sort(pruned.begin(), pruned.end(), gridOrder);
    if (!pruned.empty()) {
        ExploreCell audit = pruned[audit_seed % pruned.size()];
        audit.audit = true;
        plan.chosen.push_back(audit);
    }

    // Simulate in grid order — the exhaustive suite's cell order — so
    // lockstep lane assignment is reproducible.
    std::sort(plan.chosen.begin(), plan.chosen.end(), gridOrder);
    return plan;
}

/** The pruned path for one benchmark: fingerprint, rank, simulate only
 *  the plan's cells over one lockstep decode.  Emits the same per-cell
 *  record keys as the exhaustive grid plus one "model" summary record
 *  (pure deterministic metrics, no wall-clock). */
Job
exploreJob(const std::string &bench, const SimConfig &config, unsigned top_k)
{
    Job job;
    job.key = "explore/" + bench + "/pruned";
    job.seed = seedFor(bench);
    job.runMany = [bench, config, top_k](const JobContext &ctx) {
        const std::string prefix = "explore/" + bench + "/";
        const RddFingerprint fp = suiteFingerprint(bench, ctx.seed, config);
        const ExplorePlan plan =
            planExplore(fp, top_k, seedFor(bench + "/explore-audit"));

        std::vector<PolicyFactory> factories;
        for (const ExploreCell &cell : plan.chosen)
            factories.push_back(
                [cell]() -> std::unique_ptr<ReplacementPolicy> {
                    return cell.bypass ? makeSpdpB(cell.pd)
                                       : makeSpdpNb(cell.pd);
                });

        auto gen = SpecSuite::make(bench, ctx.seed);
        const std::vector<SimResult> results =
            runSingleCoreLockstep(*gen, config, factories, ctx.laneThreads);

        std::vector<KeyedOutcome> outcomes;
        outcomes.reserve(results.size() + 1);
        for (size_t c = 0; c < results.size(); ++c) {
            const ExploreCell &cell = plan.chosen[c];
            KeyedOutcome keyed;
            keyed.key = prefix + exploreFamily(cell.bypass) +
                std::to_string(cell.pd);
            keyed.outcome.single = results[c];
            keyed.outcome.metrics["pred_hit_rate"] = cell.predicted;
            keyed.outcome.metrics["audit_cell"] = cell.audit ? 1.0 : 0.0;
            outcomes.push_back(std::move(keyed));
        }

        KeyedOutcome summary;
        summary.key = prefix + "model";
        auto &m = summary.outcome.metrics;
        m["grid_cells"] = static_cast<double>(plan.gridCells);
        m["simulated_cells"] = static_cast<double>(plan.chosen.size());
        m["top_k"] = static_cast<double>(top_k);
        m["pred_best_pd_nb"] = static_cast<double>(plan.predBestPd[0]);
        m["pred_best_pd_b"] = static_cast<double>(plan.predBestPd[1]);
        m["pred_best_hit_nb"] = plan.predBestHit[0];
        m["pred_best_hit_b"] = plan.predBestHit[1];
        m["err_bar"] = plan.errorBar;
        outcomes.push_back(std::move(summary));
        return outcomes;
    };
    return job;
}

std::vector<Job>
buildExplore(const SuiteOptions &options)
{
    const SimConfig config = scaledConfig(options, 2'000'000, 600'000);
    std::vector<Job> jobs;
    for (const std::string &bench : kExploreBenches) {
        const std::string prefix = "explore/" + bench + "/";
        if (options.explore) {
            jobs.push_back(exploreJob(bench, config,
                                      std::max(1u, options.exploreTopK)));
            continue;
        }
        for (bool byp : {false, true})
            for (uint32_t pd : defaultPdGrid())
                jobs.push_back(singleCoreJob(
                    prefix + exploreFamily(byp) + std::to_string(pd), bench,
                    [pd, byp] { return byp ? makeSpdpB(pd) : makeSpdpNb(pd); },
                    config));
    }
    return jobs;
}

void
reportExplore(std::ostream &out, const RecordLookup &records)
{
    const bool pruned_mode = records.find(
        "explore/" + kExploreBenches.front() + "/model") != nullptr;
    out << "==== explore: static-PD design space ("
        << (pruned_mode ? "model-pruned" : "exhaustive") << ") ====\n\n";

    Table table({"benchmark", "family", "best PD", "hit rate",
                 "predicted PD", "cells simulated"});
    for (const std::string &bench : kExploreBenches) {
        const std::string prefix = "explore/" + bench + "/";
        for (bool byp : {false, true}) {
            const std::string fam = exploreFamily(byp);
            const GridBest best = bestOverPdGrid(records, prefix + fam);
            size_t simulated = 0;
            for (uint32_t pd : defaultPdGrid())
                if (records.single(prefix + fam + std::to_string(pd)))
                    ++simulated;
            std::string family_label = fam;
            family_label.pop_back(); // drop the trailing ':'
            if (!best.result) {
                table.addRow({byp ? "" : bench, family_label, "n/a", "n/a",
                              "n/a", std::to_string(simulated)});
                continue;
            }
            const std::optional<double> pred_pd = records.metric(
                prefix + "model", byp ? "pred_best_pd_b" : "pred_best_pd_nb");
            const double hit = best.result->llcAccesses
                ? static_cast<double>(best.result->llcHits) /
                    best.result->llcAccesses
                : 0.0;
            table.addRow(
                {byp ? "" : bench, family_label, std::to_string(best.pd),
                 Table::num(hit, 3),
                 pred_pd ? std::to_string(static_cast<uint32_t>(*pred_pd))
                         : "-",
                 std::to_string(simulated)});
        }
    }
    table.print(out);

    if (pruned_mode) {
        out << "\n\"best PD\" minimizes simulated misses over the "
               "contenders the model chose (top-K per family + one "
               "seeded audit cell from the pruned tail);\nthe hotpath "
               "suite's explore job checks the same selection against "
               "the exhaustive grid and times the speedup.\n";
    } else {
        out << "\nexhaustive grid (38 cells per benchmark); rerun with "
               "--explore to let the analytic model prune it.\n";
    }
}

// ---------------------------------------------------------------------------
// hotpath — self-profiling throughput of the cache substrate itself.
//
// Unlike the figure suites, these jobs drive Cache::access directly (no
// hierarchy, no timing model) so the metric is the substrate's raw
// accesses/sec.  One job runs the frozen pre-SoA ReferenceCache on the
// identical trace, so every BENCH_hotpath.json carries the SoA-vs-AoS
// speedup as a machine-independent ratio next to the absolute rates.
//
// All timed jobs share one trace seed (seedFor("hotpath/trace")), so the
// hit rates in the dump are comparable across policies and substrates.
// The accesses/accesses_per_sec/hit_rate scalars land in JobOutcome::
// metrics; accesses_per_sec is inherently wall-clock-volatile, which is
// why determinism tests key on the smoke suite, not this one.

/** Trace length of one measured pass (addresses, not bytes). */
constexpr size_t kHotpathTraceLen = 1u << 20;

/** Uniform line addresses over `span`; ~25% of the paper LLC resident
 *  when span = 4 * numLines, which exercises hit, miss and evict paths
 *  in realistic proportion. */
std::vector<uint64_t>
hotpathTrace(uint64_t seed, uint64_t span)
{
    Rng rng(seed);
    std::vector<uint64_t> trace(kHotpathTraceLen);
    for (uint64_t &addr : trace)
        addr = rng.below(span);
    return trace;
}

/** Measured accesses at `scale` (floor keeps CI smoke runs meaningful). */
uint64_t
hotpathTarget(double scale)
{
    const double scaled = 16.0 * 1024 * 1024 * scale;
    return std::max<uint64_t>(2'000'000, static_cast<uint64_t>(scaled));
}

/**
 * Walk `count` accesses of `trace` starting at *cursor (wrapping), and
 * return the wall-clock seconds the walk took.  *cursor advances so
 * consecutive segments continue the same access stream.
 *
 * `access` is called with the current address and the one after it: a
 * trace-driven caller always knows the next access, so the SoA jobs
 * software-pipeline the walk by issuing Cache::prefetchSet for the next
 * set before performing the current access.  That is part of the
 * substrate's driving model, not a trick of the benchmark — any trace
 * consumer can do the same.
 */
template <typename AccessFn>
double
timedSegment(const std::vector<uint64_t> &trace, size_t *cursor,
             uint64_t count, AccessFn &&access)
{
    const size_t n = trace.size();
    size_t i = *cursor;
    // pdplint: allow(wall-clock) hotpath suite measures throughput; the
    // rate lands only in the volatile metrics section.
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t k = 0; k < count; ++k) {
        const uint64_t addr = trace[i];
        i = i + 1 == n ? 0 : i + 1;
        access(addr, trace[i]);
    }
    *cursor = i;
    // pdplint: allow(wall-clock) end of the same timed segment.
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Pairs of interleaved A/B segments in one paired measurement (odd, so
 *  the median ratio is a real pair's ratio). */
constexpr int kHotpathPairs = 5;

void
hotpathMetrics(JobOutcome &outcome, uint64_t done, double seconds,
               double hit_rate)
{
    outcome.metrics["accesses"] = static_cast<double>(done);
    outcome.metrics["accesses_per_sec"] =
        seconds > 0 ? static_cast<double>(done) / seconds : 0.0;
    outcome.metrics["hit_rate"] = hit_rate;
}

/**
 * Throughput of the live (SoA) Cache under a single-core policy,
 * measured against an in-job AoS twin.
 *
 * Wall-clock rates on a shared machine drift by integer factors between
 * phases, so a ratio of two rates measured in different jobs (possibly
 * minutes apart) is meaningless.  Each job therefore drives the live
 * cache and a private ReferenceCache through the same stream in
 * interleaved timed segments and reports the median of the per-pair
 * ratios as `vs_aos` — both sides of every pair see the same machine
 * weather, and the median sheds the odd descheduled segment.
 */
Job
hotpathCacheJob(std::string key, std::string policySpec, double scale)
{
    Job job;
    job.key = std::move(key);
    job.seed = seedFor("hotpath/trace");
    job.run = [policySpec = std::move(policySpec),
               scale](const JobContext &ctx) {
        Cache cache(CacheConfig::paperLlc(), makePolicy(policySpec));
        ReferenceLru ref_lru;
        ReferenceCache ref(CacheConfig::paperLlc(), ref_lru);
        ref_lru.attach(ref.numSets(), ref.numWays());

        const auto trace =
            hotpathTrace(ctx.seed, cache.config().numLines() * 4);

        AccessContext access;
        const auto soa = [&](uint64_t addr, uint64_t next) {
            cache.prefetchSet(cache.setIndex(next));
            access.lineAddr = addr;
            access.set = cache.setIndex(addr);
            cache.access(access);
        };
        AccessContext ref_access;
        const auto aos = [&](uint64_t addr, uint64_t) {
            ref_access.lineAddr = addr;
            ref.access(ref_access);
        };

        // Warmup both substrates over one full pass.
        size_t soa_cursor = 0, aos_cursor = 0;
        timedSegment(trace, &soa_cursor, trace.size(), soa);
        timedSegment(trace, &aos_cursor, trace.size(), aos);
        cache.resetStats();

        const uint64_t seg =
            std::max<uint64_t>(hotpathTarget(scale) / kHotpathPairs, 1);
        double soa_seconds = 0.0, aos_seconds = 0.0;
        std::vector<double> ratios;
        uint64_t done = 0;
        for (int pair = 0; pair < kHotpathPairs; ++pair) {
            const double s = timedSegment(trace, &soa_cursor, seg, soa);
            const double a = timedSegment(trace, &aos_cursor, seg, aos);
            soa_seconds += s;
            aos_seconds += a;
            done += seg;
            if (s > 0 && a > 0)
                ratios.push_back(a / s);
        }
        std::sort(ratios.begin(), ratios.end());

        JobOutcome outcome;
        hotpathMetrics(outcome, done, soa_seconds, cache.stats().hitRate());
        outcome.metrics["aos_accesses_per_sec"] =
            aos_seconds > 0 ? static_cast<double>(done) / aos_seconds : 0.0;
        outcome.metrics["vs_aos"] =
            ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
        return outcome;
    };
    return job;
}

/** The frozen pre-SoA substrate alone: the absolute anchor every
 *  BENCH_hotpath.json carries next to the paired ratios. */
Job
hotpathReferenceJob(double scale)
{
    Job job;
    job.key = "hotpath/llc/AoS-reference";
    job.seed = seedFor("hotpath/trace");
    job.run = [scale](const JobContext &ctx) {
        ReferenceLru lru;
        ReferenceCache cache(CacheConfig::paperLlc(), lru);
        lru.attach(cache.numSets(), cache.numWays());
        const auto trace =
            hotpathTrace(ctx.seed, static_cast<uint64_t>(cache.numSets()) *
                                       cache.numWays() * 4);
        AccessContext access;
        const auto aos = [&](uint64_t addr, uint64_t) {
            access.lineAddr = addr;
            cache.access(access);
        };
        size_t cursor = 0;
        timedSegment(trace, &cursor, trace.size(), aos); // warmup
        const uint64_t target = hotpathTarget(scale);
        const double seconds = timedSegment(trace, &cursor, target, aos);
        JobOutcome outcome;
        const double hit_rate = cache.accesses()
            ? static_cast<double>(cache.hits()) / cache.accesses()
            : 0.0;
        hotpathMetrics(outcome, target, seconds, hit_rate);
        return outcome;
    };
    return job;
}

/** The partitioned multi-core fast path: a 4-core shared LLC under the
 *  PD partitioning policy, threads interleaved round-robin. */
Job
hotpathPartitionJob(double scale)
{
    Job job;
    job.key = "hotpath/shared/PDP-3-part-4c";
    job.seed = seedFor("hotpath/trace-shared");
    job.run = [scale](const JobContext &ctx) {
        constexpr unsigned kThreads = 4;
        Cache cache(CacheConfig::paperLlc(kThreads),
                    makeSharedPolicy("PDP-3", kThreads));
        // Thread t walks its own uniform window; the window tag in the
        // high bits keeps the per-thread footprints disjoint while the
        // low bits still spread over all sets.
        const uint64_t span = cache.config().numLines();
        Rng rng(ctx.seed);
        std::vector<uint64_t> trace(kHotpathTraceLen);
        for (size_t i = 0; i < trace.size(); ++i)
            trace[i] = (static_cast<uint64_t>(i & (kThreads - 1)) << 40) |
                rng.below(span);
        AccessContext access;
        const auto shared = [&](uint64_t addr, uint64_t next) {
            cache.prefetchSet(cache.setIndex(next));
            access.threadId = static_cast<uint8_t>(addr >> 40);
            access.lineAddr = addr;
            access.set = cache.setIndex(addr);
            cache.access(access);
        };
        size_t cursor = 0;
        timedSegment(trace, &cursor, trace.size(), shared); // warmup
        const uint64_t target = hotpathTarget(scale);
        const double seconds = timedSegment(trace, &cursor, target, shared);
        JobOutcome outcome;
        hotpathMetrics(outcome, target, seconds, cache.stats().hitRate());
        return outcome;
    };
    return job;
}

/**
 * Overhead of an enabled-but-idle telemetry build on the substrate hot
 * path: two identical SoA LRU caches walk the same stream in interleaved
 * paired segments; one side also bumps a registry counter per access —
 * the pattern an always-on metric would use.  `telemetry_idle_ratio` is
 * the median plain/instrumented time ratio (1.0 = free; CI gates >=
 * 0.98, i.e. within the 2% budget), and `telemetry_compiled` records
 * whether the build compiled telemetry in at all.
 */
Job
hotpathTelemetryIdleJob(double scale)
{
    Job job;
    job.key = "hotpath/llc/LRU-telemetry-idle";
    job.seed = seedFor("hotpath/trace");
    job.run = [scale](const JobContext &ctx) {
        Cache plain(CacheConfig::paperLlc(), makePolicy("LRU"));
        Cache instr(CacheConfig::paperLlc(), makePolicy("LRU"));
        const auto trace =
            hotpathTrace(ctx.seed, plain.config().numLines() * 4);

        telemetry::Counter &counter = telemetry::MetricsRegistry::global()
            .counter("hotpath.idle_probe", /*volatile_metric=*/true);
        AccessContext pa;
        const auto plain_walk = [&](uint64_t addr, uint64_t next) {
            plain.prefetchSet(plain.setIndex(next));
            pa.lineAddr = addr;
            pa.set = plain.setIndex(addr);
            plain.access(pa);
        };
        AccessContext ia;
        const auto instr_walk = [&](uint64_t addr, uint64_t next) {
            instr.prefetchSet(instr.setIndex(next));
            ia.lineAddr = addr;
            ia.set = instr.setIndex(addr);
            instr.access(ia);
            counter.add(1);
        };

        size_t plain_cursor = 0, instr_cursor = 0;
        timedSegment(trace, &plain_cursor, trace.size(), plain_walk);
        timedSegment(trace, &instr_cursor, trace.size(), instr_walk);
        plain.resetStats();

        const uint64_t seg =
            std::max<uint64_t>(hotpathTarget(scale) / kHotpathPairs, 1);
        double plain_seconds = 0.0;
        std::vector<double> ratios;
        uint64_t done = 0;
        for (int pair = 0; pair < kHotpathPairs; ++pair) {
            const double p = timedSegment(trace, &plain_cursor, seg,
                                          plain_walk);
            const double t = timedSegment(trace, &instr_cursor, seg,
                                          instr_walk);
            plain_seconds += p;
            done += seg;
            if (p > 0 && t > 0)
                ratios.push_back(p / t);
        }
        std::sort(ratios.begin(), ratios.end());

        JobOutcome outcome;
        hotpathMetrics(outcome, done, plain_seconds,
                       plain.stats().hitRate());
        outcome.metrics["telemetry_idle_ratio"] =
            ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
        outcome.metrics["telemetry_compiled"] =
            telemetry::kCompiled ? 1.0 : 0.0;
        return outcome;
    };
    return job;
}

/** Interleaved pairs in the lockstep-sweep measurement (odd; fewer than
 *  kHotpathPairs because each side is a full 19-config sweep). */
constexpr int kSweepPairs = 3;

/**
 * The tentpole ratio the CI gate keys on: one benchmark's full 19-point
 * SPDP-B static-PD grid, run as 19 independent sequential simulations vs
 * one lockstep sweep over a single trace decode (sim/lockstep_sweep.h).
 * `sweep_speedup` is the median per-pair independent/lockstep time
 * ratio; both sides of each pair run back to back on the same machine.
 * The job PDP_CHECKs per-config miss equality across the sides, so every
 * hotpath run re-proves the lockstep engine exact.
 */
Job
hotpathSweepJob(double scale)
{
    Job job;
    job.key = "hotpath/sweep/SPDP-B-grid";
    job.seed = seedFor("456.hmmer");
    job.run = [scale](const JobContext &ctx) {
        const std::string bench = "456.hmmer";
        SimConfig config;
        config.accesses = std::max<uint64_t>(
            100'000, static_cast<uint64_t>(1'000'000 * scale));
        config.warmup = config.accesses / 4;

        const std::vector<uint32_t> grid = defaultPdGrid();
        std::vector<PolicyFactory> factories;
        for (uint32_t pd : grid)
            factories.push_back([pd] { return makeSpdpB(pd); });
        const unsigned threads =
            std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

        double lockSeconds = 0.0;
        std::vector<double> ratios;
        std::vector<SimResult> lockstep, independent;
        for (int pair = 0; pair < kSweepPairs; ++pair) {
            // pdplint: allow(wall-clock) paired throughput measurement;
            // only the volatile metrics dump sees the result.
            auto t0 = std::chrono::steady_clock::now();
            independent.clear();
            for (uint32_t pd : grid) {
                auto gen = SpecSuite::make(bench, ctx.seed);
                Hierarchy hierarchy(config.hierarchy, makeSpdpB(pd));
                independent.push_back(
                    runSingleCore(*gen, hierarchy, config));
            }
            const double ind =
                // pdplint: allow(wall-clock) see above.
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

            // pdplint: allow(wall-clock) see above.
            t0 = std::chrono::steady_clock::now();
            auto gen = SpecSuite::make(bench, ctx.seed);
            lockstep = runSingleCoreLockstep(*gen, config, factories,
                                             threads);
            const double lock =
                // pdplint: allow(wall-clock) see above.
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

            lockSeconds += lock;
            if (ind > 0 && lock > 0)
                ratios.push_back(ind / lock);
            for (size_t c = 0; c < grid.size(); ++c)
                PDP_CHECK(lockstep[c].llcMisses ==
                                  independent[c].llcMisses &&
                              lockstep[c].cycles == independent[c].cycles,
                          "lockstep sweep diverged from independent runs "
                          "at PD=", grid[c]);
        }
        std::sort(ratios.begin(), ratios.end());

        uint64_t hits = 0, accesses = 0;
        for (const SimResult &r : lockstep) {
            hits += r.llcHits;
            accesses += r.llcAccesses;
        }
        JobOutcome outcome;
        hotpathMetrics(
            outcome,
            static_cast<uint64_t>(kSweepPairs) * grid.size() *
                config.accesses,
            lockSeconds,
            accesses ? static_cast<double>(hits) / accesses : 0.0);
        outcome.metrics["sweep_speedup"] =
            ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
        outcome.metrics["sweep_configs"] =
            static_cast<double>(grid.size());
        // Lane fan-out actually used: `pdpreport.py perf` only enforces
        // the absolute sweep floor when at least 4 lane workers ran (19
        // exact policy replays are irreducible work, so a 1-core host
        // tops out near 2x no matter how the front-end is amortized).
        outcome.metrics["sweep_threads"] = static_cast<double>(threads);
        return outcome;
    };
    return job;
}

/**
 * The explorer's CI ratio: one benchmark's full 38-cell static-PD design
 * space (both SPDP families), run exhaustively as independent sequential
 * simulations vs the model-pruned path — fingerprint + analytic ranking
 * + top-K-and-audit lockstep simulation — in interleaved pairs.
 * `explore_speedup` is the median per-pair exhaustive/pruned time ratio;
 * both sides of each pair see the same machine weather.  The job also
 * PDP_CHECKs that the pruned side's miss-minimizing cell matches the
 * exhaustive winner per family (within 2%, since sub-scale runs can
 * flip near-tied neighbours), so every hotpath run re-proves the
 * pruning sound.
 */
Job
hotpathExploreJob(double scale)
{
    Job job;
    job.key = "hotpath/explore/SPDP-grid";
    job.seed = seedFor("450.soplex");
    job.run = [scale](const JobContext &ctx) {
        const std::string bench = "450.soplex";
        SimConfig config;
        config.accesses = std::max<uint64_t>(
            400'000, static_cast<uint64_t>(1'000'000 * scale));
        config.warmup = config.accesses / 4;
        const unsigned threads =
            std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
        const std::vector<uint32_t> grid = defaultPdGrid();

        double exploreSeconds = 0.0;
        std::vector<double> ratios;
        std::vector<SimResult> exhaustive, contenders;
        ExplorePlan plan;
        uint64_t done = 0;
        for (int pair = 0; pair < kSweepPairs; ++pair) {
            // Exhaustive side: every (family, PD) cell, sequentially —
            // the simulate-everything baseline a sweep pays without the
            // model.
            // pdplint: allow(wall-clock) paired throughput measurement;
            // only the volatile metrics dump sees the result.
            auto t0 = std::chrono::steady_clock::now();
            exhaustive.clear();
            for (bool byp : {false, true})
                for (uint32_t pd : grid) {
                    auto gen = SpecSuite::make(bench, ctx.seed);
                    Hierarchy hierarchy(config.hierarchy,
                                        byp ? makeSpdpB(pd)
                                            : makeSpdpNb(pd));
                    exhaustive.push_back(
                        runSingleCore(*gen, hierarchy, config));
                }
            const double exh =
                // pdplint: allow(wall-clock) see above.
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

            // Pruned side: fingerprint the stream once, rank the whole
            // grid analytically, simulate only the contenders (plus the
            // audit cell) over one lockstep decode.
            // pdplint: allow(wall-clock) see above.
            t0 = std::chrono::steady_clock::now();
            auto fgen = SpecSuite::make(bench, ctx.seed);
            FingerprintOptions fopt;
            fopt.accesses = config.accesses;
            fopt.warmup = config.warmup;
            const RddFingerprint fp = fingerprintStream(*fgen, fopt);
            plan = planExplore(fp, 3, seedFor(bench + "/explore-audit"));
            std::vector<PolicyFactory> factories;
            for (const ExploreCell &cell : plan.chosen)
                factories.push_back(
                    [cell]() -> std::unique_ptr<ReplacementPolicy> {
                        return cell.bypass ? makeSpdpB(cell.pd)
                                           : makeSpdpNb(cell.pd);
                    });
            auto gen = SpecSuite::make(bench, ctx.seed);
            contenders =
                runSingleCoreLockstep(*gen, config, factories, threads);
            const double prn =
                // pdplint: allow(wall-clock) see above.
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

            exploreSeconds += prn;
            done += plan.chosen.size() * config.accesses;
            if (exh > 0 && prn > 0)
                ratios.push_back(exh / prn);
        }
        std::sort(ratios.begin(), ratios.end());

        // Winner reproduction per family: the pruned set must contain a
        // cell within 2% of the exhaustive miss minimum.
        for (bool byp : {false, true}) {
            uint64_t best_exh = ~0ull;
            const size_t base = byp ? grid.size() : 0;
            for (size_t g = 0; g < grid.size(); ++g)
                best_exh =
                    std::min(best_exh, exhaustive[base + g].llcMisses);
            uint64_t best_pruned = ~0ull;
            for (size_t c = 0; c < plan.chosen.size(); ++c)
                if (plan.chosen[c].bypass == byp)
                    best_pruned =
                        std::min(best_pruned, contenders[c].llcMisses);
            PDP_CHECK(best_pruned <= best_exh + best_exh / 50,
                      "explore pruning missed the ",
                      byp ? "SPDP-B" : "SPDP-NB", " winner: ", best_pruned,
                      " misses vs exhaustive ", best_exh);
        }

        uint64_t hits = 0, accesses = 0;
        for (const SimResult &r : contenders) {
            hits += r.llcHits;
            accesses += r.llcAccesses;
        }
        JobOutcome outcome;
        hotpathMetrics(outcome, done, exploreSeconds,
                       accesses ? static_cast<double>(hits) / accesses
                                : 0.0);
        outcome.metrics["explore_speedup"] =
            ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
        outcome.metrics["explore_cells"] =
            static_cast<double>(2 * grid.size());
        outcome.metrics["explore_simulated"] =
            static_cast<double>(plan.chosen.size());
        // Lane fan-out of the pruned side's lockstep leg: `pdpreport.py
        // perf` only enforces the absolute explore floor when >= 4 lane
        // workers ran (the pruned side still replays 7 exact policies).
        outcome.metrics["explore_threads"] = static_cast<double>(threads);
        return outcome;
    };
    return job;
}

const std::vector<std::string> kHotpathPolicies = {"LRU", "DRRIP", "PDP-3"};

std::vector<Job>
buildHotpath(const SuiteOptions &options)
{
    std::vector<Job> jobs;
    for (const std::string &policy : kHotpathPolicies)
        jobs.push_back(
            hotpathCacheJob("hotpath/llc/" + policy, policy, options.scale));
    jobs.push_back(hotpathReferenceJob(options.scale));
    jobs.push_back(hotpathPartitionJob(options.scale));
    jobs.push_back(hotpathTelemetryIdleJob(options.scale));
    jobs.push_back(hotpathSweepJob(options.scale));
    jobs.push_back(hotpathExploreJob(options.scale));
    return jobs;
}

void
reportHotpath(std::ostream &out, const RecordLookup &records)
{
    out << "==== hotpath: cache-substrate throughput ====\n\n";

    const auto metric = [&](const std::string &key, const char *name) {
        return records.metric(key, name).value_or(0.0);
    };

    Table table({"configuration", "Macc/s", "hit rate", "vs AoS"});
    std::vector<std::string> keys;
    for (const std::string &policy : kHotpathPolicies)
        keys.push_back("hotpath/llc/" + policy);
    keys.push_back("hotpath/llc/AoS-reference");
    keys.push_back("hotpath/shared/PDP-3-part-4c");
    keys.push_back("hotpath/llc/LRU-telemetry-idle");
    keys.push_back("hotpath/sweep/SPDP-B-grid");
    keys.push_back("hotpath/explore/SPDP-grid");
    for (const std::string &key : keys) {
        const std::optional<double> aps =
            records.metric(key, "accesses_per_sec");
        if (!aps) {
            table.addRow({key, "n/a", "n/a", "n/a"});
            continue;
        }
        // vs_aos is the job's own paired-median ratio (rates measured
        // in different jobs are not comparable on a noisy machine); the
        // shared-LLC and AoS-anchor jobs have no paired twin.
        const double vs_aos = metric(key, "vs_aos");
        table.addRow({key, Table::num(*aps / 1e6, 2),
                      Table::upct(metric(key, "hit_rate")),
                      vs_aos > 0 ? Table::num(vs_aos, 2) + "x" : "-"});
    }
    table.print(out);

    const std::string idle_key = "hotpath/llc/LRU-telemetry-idle";
    if (const auto idle = records.metric(idle_key, "telemetry_idle_ratio")) {
        out << "\ntelemetry idle overhead: plain/instrumented = "
            << Table::num(*idle, 3) << "x (1.00 = free; telemetry "
            << (metric(idle_key, "telemetry_compiled") > 0 ? "compiled in"
                                                           : "compiled out")
            << ")\n";
    }

    const std::string sweep_key = "hotpath/sweep/SPDP-B-grid";
    if (const auto sweep = records.metric(sweep_key, "sweep_speedup")) {
        out << "lockstep 19-point SPDP-B sweep vs independent runs: "
            << Table::num(*sweep, 2) << "x on "
            << static_cast<unsigned>(metric(sweep_key, "sweep_threads"))
            << " lane worker(s)\n";
    }
    const std::string explore_key = "hotpath/explore/SPDP-grid";
    if (const auto explore = records.metric(explore_key, "explore_speedup")) {
        out << "model-pruned explore vs exhaustive "
            << static_cast<unsigned>(metric(explore_key, "explore_cells"))
            << "-cell grid: " << Table::num(*explore, 2) << "x ("
            << static_cast<unsigned>(
                   metric(explore_key, "explore_simulated"))
            << " cells simulated, "
            << static_cast<unsigned>(metric(explore_key, "explore_threads"))
            << " lane worker(s))\n";
    }

    out << "\nAoS = the frozen pre-SoA substrate (reference_cache.h); "
           "vs AoS = median of interleaved paired segments inside each "
           "job.\n`tools/pdpreport.py perf` gates these rows against "
           "the committed baseline in CI.\n";
}

// ---------------------------------------------------------------------------
// service — the multi-tenant cache-service mode (service/service_sim.h):
// one scripted open-loop tenant population, replayed identically under
// each shared policy, with per-tenant SLO attainment as the figure.

/** Policies the service scenario is replayed under.  LRU and TA-DRRIP
 *  run as unmanaged baselines; UCP and PDP-x implement
 *  TenantAwarePartition and repartition on every churn step. */
const std::vector<std::string> &
servicePolicies()
{
    static const std::vector<std::string> policies = {
        "LRU", "TA-DRRIP", "UCP", "PDP-2", "PDP-3"};
    return policies;
}

/** "service/t<tenants>c<churn>" — the scenario identity all policies of
 *  one run share (and seed from). */
std::string
serviceTag(const SuiteOptions &options)
{
    return "service/t" + std::to_string(options.serviceTenants) + "c" +
        std::to_string(options.serviceChurn);
}

std::vector<Job>
buildService(const SuiteOptions &options)
{
    ServiceConfig config;
    config.slots = options.serviceTenants;
    // One paper LLC per 4 tenants' worth of capacity: tenants contend
    // hard enough that partitioning matters, but the footprints fit.
    config.hierarchy.llc = CacheConfig::paperLlc(4);
    config.accesses = 6'000'000;
    config.warmup = 1'000'000;
    config.telemetry = telemetryConfig(options);
    config.faultAt = options.serviceFaultAt;
    config = config.scaled(options.scale);

    ServiceScenarioParams params;
    params.tenants = options.serviceTenants;
    params.churn = options.serviceChurn;
    params.accesses = config.accesses;

    const std::string tag = serviceTag(options);
    // The scenario (footprints, skews, SLOs, churn script) and every
    // tenant's stream derive from the same seed, so each policy sees
    // the identical open-loop traffic.
    const uint64_t seed = seedFor(tag);
    const std::vector<TenantSpec> tenants =
        buildServiceScenario(params, seed);

    std::vector<Job> jobs;
    for (const std::string &policy : servicePolicies())
        jobs.push_back(
            serviceJob(tag + "/" + policy, tenants, policy, config, seed));
    return jobs;
}

void
reportService(std::ostream &out, const RecordLookup &lookup)
{
    // The grid is option-parameterized ("service/t<N>c<M>/<policy>"), so
    // recover the scenario tag from the executed keys.
    const std::vector<std::string> keys = lookup.keys();
    if (keys.empty()) {
        out << "==== service: no records ====\n";
        return;
    }
    const std::string tag = keys.front().substr(0, keys.front().rfind('/'));

    out << "==== service: per-tenant SLO attainment (" << tag << ") ====\n";

    Table summary({"policy", "agg hit", "joins", "leaves", "reallocs",
                   "hitSLO", "latSLO", "mean drift"});
    for (const std::string &policy : servicePolicies()) {
        const ServiceResult *r = lookup.service(tag + "/" + policy);
        if (!r) {
            summary.addRow({policy, "-", "-", "-", "-", "-", "-", "-"});
            continue;
        }
        unsigned hitMet = 0, latMet = 0;
        Accumulator drift;
        for (const TenantOutcome &t : r->tenants) {
            hitMet += t.hitRateSloMet ? 1 : 0;
            latMet += t.latencySloMet ? 1 : 0;
            drift.add(t.occupancyDrift);
        }
        const std::string n = std::to_string(r->tenants.size());
        summary.addRow({policy + (r->tenantAware ? " *" : ""),
                        Table::num(r->aggregateHitRate, 3),
                        std::to_string(r->joins), std::to_string(r->leaves),
                        std::to_string(r->reallocs),
                        std::to_string(hitMet) + "/" + n,
                        std::to_string(latMet) + "/" + n,
                        Table::num(drift.mean(), 4)});
    }
    summary.print(out);
    out << "* = tenant-aware partition (quota tracks the policy's "
           "allocation; others measure drift vs an equal share)\n";

    // Per-tenant detail under the strongest tenant-aware policy.
    const std::string detailPolicy = "PDP-3";
    if (const ServiceResult *r = lookup.service(tag + "/" + detailPolicy)) {
        out << "\n---- " << detailPolicy << " per-tenant detail ----\n";
        Table detail({"tenant", "slot", "resident", "requests", "hit rate",
                      "p99 miss", "quota", "occ", "drift", "SLO"});
        for (const TenantOutcome &t : r->tenants) {
            const std::string slo =
                std::string(t.hitRateSloMet ? "h" : "-") +
                (t.latencySloMet ? "l" : "-");
            detail.addRow(
                {t.name, std::to_string(t.slot),
                 std::to_string(t.joinedAt) + ".." + std::to_string(t.leftAt),
                 std::to_string(t.requests), Table::num(t.hitRate, 3),
                 Table::num(t.p99MissCycles, 0), Table::num(t.meanQuota, 3),
                 Table::num(t.meanOccupancy, 3),
                 Table::num(t.occupancyDrift, 4), slo});
        }
        detail.print(out);
        out << "SLO column: h = hit-rate bound met, l = p99-latency "
               "bound met\n";
    }
}

} // namespace

const std::vector<Suite> &
allSuites()
{
    static const std::vector<Suite> suites = [] {
        std::vector<Suite> all = {
            {"fig10_single_core",
             "Fig. 10: single-core replacement/bypass policies vs DIP",
             buildFig10, reportFig10},
            {"fig4_static_pdp",
             "Fig. 4 (+ Fig. 2, Table 2): best-eps DRRIP vs static PDP "
             "(64+-point PD grids)",
             buildFig4, reportFig4},
            {"fig12_partitioning",
             "Fig. 12: 4-/16-core shared-cache partitioning vs TA-DRRIP",
             buildFig12, reportFig12},
        };
        for (Suite &suite : figureSuites())
            all.push_back(std::move(suite));
        all.insert(
            all.end(),
            {
                {"hotpath",
                 "cache-substrate throughput (SoA vs frozen AoS reference)",
                 buildHotpath, reportHotpath},
                // No figure report: the generic per-job table from
                // runSuite() is the whole story for a sanity grid.
                {"smoke", "small single-/multi-core grid for CI smoke runs",
                 buildSmoke, nullptr},
                {"service",
                 "multi-tenant cache-service mode: open-loop tenants, "
                 "churn, per-tenant SLOs",
                 buildService, reportService},
                {"model_validation",
                 "analytic estimator vs simulator: per-point |pred - sim| "
                 "over the single-core workload set",
                 buildModelValidation, reportModelValidation},
                {"explore",
                 "static-PD design space: exhaustive grid, or model-pruned "
                 "top-K contenders with --explore",
                 buildExplore, reportExplore},
            });
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

/** Whether two cells of one kind replay one decode: same stream, same
 *  config, and nothing observing the global access order. */
bool
sameDecode(const SingleCoreCell &a, const SingleCoreCell &b)
{
    return a.benchmark == b.benchmark && a.config == b.config &&
        !observesGlobalOrder(a.config);
}

bool
sameDecode(const MultiCoreCell &a, const MultiCoreCell &b)
{
    return a.workload == b.workload && a.config == b.config &&
        !a.config.telemetry.enabled && a.config.auditEvery == 0;
}

/** Whether `next` may join the lockstep sweep that `first` opens. */
bool
sharesDecode(const Job &first, const Job &next)
{
    if (!first.cell || !next.cell || first.seed != next.seed ||
        first.cell->index() != next.cell->index())
        return false;
    return std::visit(
        [&next](const auto &a) {
            return sameDecode(a, std::get<std::decay_t<decltype(a)>>(
                                     *next.cell));
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
