/**
 * @file
 * The paper artifacts outside Figs. 4, 10 and 12: Figs. 1/5b, 5a, 6, 8,
 * 9 and 11 and Secs. 6.2 and 6.5, as seven suites behind the registry
 * in suites.cc (Fig. 2 and Table 2 are sections of the fig4_static_pdp
 * report).
 *
 * A cell that is a (benchmark, policy, SimConfig) triple is a plain
 * singleCoreJob, so runner::selectJobs folds each benchmark's cells into
 * one lockstep sweep.  A result that needs a policy's or model's
 * internals — occupancy, PD history, E(d_p), the PD-compute processor,
 * SRAM bits — is one job that records them as JobOutcome::metrics, which
 * the deterministic dumps keep.
 */

#include "runner/suites.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "cache/occupancy_tracker.h"
#include "core/hit_rate_model.h"
#include "core/pdp_policy.h"
#include "core/rdd.h"
#include "hw/overhead_model.h"
#include "hw/pdproc.h"
#include "sim/policy_factory.h"
#include "sim/static_pd_search.h"
#include "trace/rdd_fingerprint.h"
#include "trace/spec_suite.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace pdp
{
namespace runner
{

namespace
{

using Metrics = std::map<std::string, double>;

/** `value` zero-padded to three digits, so numbered metrics sort in
 *  numeric order in the JSON. */
std::string
padded(uint64_t value)
{
    const std::string digits = std::to_string(value);
    return std::string(digits.size() < 3 ? 3 - digits.size() : 0, '0') +
        digits;
}

/** A job whose whole result is scalar metrics. */
Job
metricsJob(std::string key, uint64_t seed,
           std::function<Metrics(const JobContext &)> compute)
{
    Job job;
    job.key = std::move(key);
    job.seed = seed;
    job.run = [compute = std::move(compute)](const JobContext &ctx) {
        JobOutcome outcome;
        outcome.metrics = compute(ctx);
        return outcome;
    };
    return job;
}

/** Largest RD Figs. 1, 5b and 6 resolve (the paper's d_max). */
constexpr uint32_t kPaperDMax = 256;

/** The exact RDD of the first `accesses` accesses of `bench`'s seeded
 *  stream after the L2, at the paper LLC's set count and d_max (Figs.
 *  1, 5b and 6 profile from the first access, with no warmup). */
RddFingerprint
paperRdd(const std::string &bench, uint64_t seed, uint64_t accesses)
{
    FingerprintOptions options;
    options.accesses = accesses;
    options.warmup = 0;
    options.sets = CacheConfig::paperLlc().numSets();
    options.dMax = kPaperDMax;
    return fingerprintBenchmark(bench, seed, options);
}

// ---------------------------------------------------------------------------
// fig1_rdd — Fig. 1 (RDDs of five benchmarks) and Fig. 5b (the three
// xalancbmk windows), as 16-wide text histograms.

const std::vector<std::string> kFig1Benches = {
    "403.gcc", "436.cactusADM", "450.soplex", "464.h264ref", "482.sphinx3"};
const std::vector<std::string> kFig5bBenches = {
    "483.xalancbmk.1", "483.xalancbmk.2", "483.xalancbmk.3"};
constexpr uint32_t kRddBar = 16;

/** Fig. 1's numbers for one RDD: the main peak, the share of accesses
 *  reused within d_max, and 16-wide bucket counts. */
Metrics
fig1Rdd(const std::string &bench, uint64_t seed, uint64_t accesses)
{
    const RddFingerprint fp = paperRdd(bench, seed, accesses);
    Metrics m;
    uint64_t peak = 0;
    uint32_t peak_rd = 1;
    for (uint32_t d = 1; d <= fp.dMax; ++d)
        if (fp.counts[d - 1] > peak) {
            peak = fp.counts[d - 1];
            peak_rd = d;
        }
    m["peak_rd"] = peak_rd;
    m["peak_count"] = static_cast<double>(std::max<uint64_t>(1, peak));
    m["covered"] = fp.accesses ? static_cast<double>(fp.hitSum()) /
                                     static_cast<double>(fp.accesses)
                               : 0.0;
    for (uint32_t lo = 1; lo <= fp.dMax; lo += kRddBar) {
        uint64_t count = 0;
        for (uint32_t d = lo; d < lo + kRddBar; ++d)
            count += fp.counts[d - 1];
        m["rd_" + padded(lo)] = static_cast<double>(count);
    }
    return m;
}

std::vector<Job>
buildFig1(const SuiteOptions &options)
{
    const uint64_t accesses = scaledConfig(options).accesses;
    std::vector<Job> jobs;
    for (const auto *benches : {&kFig1Benches, &kFig5bBenches})
        for (const std::string &bench : *benches)
            jobs.push_back(metricsJob(
                "fig1/" + bench, seedFor(bench),
                [bench, accesses](const JobContext &ctx) {
                    return fig1Rdd(bench, ctx.seed, accesses);
                }));
    return jobs;
}

void
printRdd(std::ostream &out, const RecordLookup &records,
         const std::string &bench)
{
    const std::string key = "fig1/" + bench;
    const std::optional<double> peak_rd = records.metric(key, "peak_rd");
    if (!peak_rd) {
        out << "(skipping " << bench << ": no record)\n\n";
        return;
    }
    const double peak_count = records.metric(key, "peak_count").value_or(1);
    out << bench << "  (peak RD = " << static_cast<uint32_t>(*peak_rd)
        << ", covered <= d_max: "
        << Table::upct(records.metric(key, "covered").value_or(0)) << ")\n";
    for (uint32_t lo = 1; lo <= kPaperDMax; lo += kRddBar) {
        const double count =
            records.metric(key, "rd_" + padded(lo)).value_or(0);
        const int bar = static_cast<int>(60.0 * count / (peak_count * kRddBar));
        out << "  " << (lo < 100 ? lo < 10 ? "  " : " " : "") << lo << "-"
            << lo + kRddBar - 1 << " |" << std::string(bar, '#') << " "
            << static_cast<uint64_t>(count) << "\n";
    }
    out << "\n";
}

void
reportFig1(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 1: RDDs of selected benchmarks ====\n\n";
    for (const std::string &bench : kFig1Benches)
        printRdd(out, records, bench);
    out << "==== Fig. 5b: RDDs of the three xalancbmk windows ====\n\n";
    for (const std::string &bench : kFig5bBenches)
        printRdd(out, records, bench);
    out << "Paper reference: per-benchmark peaks near 32/100 (gcc), ~72 "
           "(cactusADM), 24/120 (soplex), ~20 (h264ref), ~100 (sphinx3); "
           "xalancbmk windows peak near 100, 88 and 124/40.\n";
}

// ---------------------------------------------------------------------------
// fig5a_occupancy — Fig. 5a: LLC access and occupancy breakdown under
// DRRIP and each benchmark's best SPDP-NB / SPDP-B.

const std::vector<std::string> kFig5aBenches = {"436.cactusADM",
                                                "464.h264ref"};
const std::vector<std::string> kFig5aPolicies = {"DRRIP", "SPDP-NB",
                                                 "SPDP-B"};
/** The breakdown's shares: four of all LLC events, three of all
 *  occupancy (OccupancyBreakdown order). */
const std::vector<std::string> kFig5aShares = {
    "acc:hit", "acc:bypass",    "acc:evict<=16", "acc:evict>16",
    "occ:hit", "occ:evict<=16", "occ:evict>16"};

/** One Fig. 5a row: a SPDP row first finds its best static PD over one
 *  lockstep decode of the job's own stream, then every row runs once
 *  with an OccupancyTracker on the LLC. */
Job
occupancyJob(const std::string &bench, const std::string &policy,
             const SimConfig &config)
{
    Job job;
    job.key = "fig5a/" + bench + "/" + policy;
    job.seed = seedFor(bench);
    job.run = [bench, policy, config](const JobContext &ctx) {
        JobOutcome outcome;
        std::string spec = policy;
        if (policy != "DRRIP") {
            // The search is not a recorded run, so it records no
            // telemetry.
            SimConfig search = config;
            search.telemetry = {};
            const uint32_t pd =
                bestStaticPd(bench, policy == "SPDP-B", search, {},
                             ctx.seed, ctx.laneThreads)
                    .bestPd;
            spec += ":" + std::to_string(pd);
            outcome.metrics["pd"] = pd;
        }
        auto gen = SpecSuite::make(bench, ctx.seed);
        Hierarchy hierarchy = makeHierarchy(config, makePolicy(spec));
        OccupancyTracker tracker(hierarchy.llc());
        hierarchy.llc().setObserver(&tracker);
        outcome.single = runSingleCore(*gen, hierarchy, config);

        const OccupancyBreakdown &b = tracker.breakdown();
        const uint64_t parts[] = {b.hits,          b.bypasses,
                                  b.evictsShort,   b.evictsLong,
                                  b.occupancyHits, b.occupancyShort,
                                  b.occupancyLong};
        for (size_t i = 0; i < kFig5aShares.size(); ++i) {
            const double total = static_cast<double>(
                i < 4 ? b.totalEvents() : b.totalOccupancy());
            outcome.metrics[kFig5aShares[i]] =
                total > 0 ? parts[i] / total : 0.0;
        }
        outcome.metrics["max occupancy"] =
            static_cast<double>(b.maxOccupancy);
        return outcome;
    };
    return job;
}

std::vector<Job>
buildFig5a(const SuiteOptions &options)
{
    const SimConfig config = scaledConfig(options, 2'000'000, 800'000);
    std::vector<Job> jobs;
    for (const std::string &bench : kFig5aBenches)
        for (const std::string &policy : kFig5aPolicies)
            jobs.push_back(occupancyJob(bench, policy, config));
    return jobs;
}

void
reportFig5a(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 5a: access and occupancy breakdown ====\n\n";
    std::vector<std::string> header = {"benchmark", "policy"};
    header.insert(header.end(), kFig5aShares.begin(), kFig5aShares.end());
    header.push_back("max occupancy");
    Table table(header);
    for (const std::string &bench : kFig5aBenches) {
        for (const std::string &policy : kFig5aPolicies) {
            const std::string key = "fig5a/" + bench + "/" + policy;
            const std::optional<double> pd = records.metric(key, "pd");
            std::vector<std::string> row = {
                bench, pd ? policy + ":" + std::to_string(
                                               static_cast<uint32_t>(*pd))
                          : policy};
            for (const std::string &share : kFig5aShares) {
                const std::optional<double> v = records.metric(key, share);
                row.push_back(v ? Table::upct(*v) : "n/a");
            }
            const std::optional<double> max =
                records.metric(key, "max occupancy");
            row.push_back(max ? std::to_string(static_cast<uint64_t>(*max))
                              : "n/a");
            table.addRow(row);
        }
    }
    table.print(out);
    out << "\nSPDP rows run each benchmark's best static PD over the "
           "19-point grid.\nPaper reference: PDP removes the long-eviction "
           "occupancy (no lines beyond ~90 accesses) and SPDP-B bypasses "
           "the bulk of h264ref's misses.\n";
}

// ---------------------------------------------------------------------------
// fig6_model — Fig. 6: the hit-rate model E(d_p), evaluated on each
// benchmark's exact RDD, against SPDP-B's simulated hit rate per d_p.

const std::vector<std::string> kFig6Benches = {
    "403.gcc",     "436.cactusADM",   "464.h264ref",
    "482.sphinx3", "483.xalancbmk.2", "450.soplex"};
const std::vector<uint32_t> kFig6Grid = {16,  32,  48,  64,  80,  96,
                                         112, 128, 160, 192, 224, 256};

/** E(d_p) over the grid from the exact RDD of the first `accesses`
 *  accesses, scaled into an S_c = 4 counter array. */
Metrics
fig6Model(const std::string &bench, uint64_t seed, uint64_t accesses)
{
    const RddFingerprint fp = paperRdd(bench, seed, accesses);
    RdCounterArray rdd(kPaperDMax, 4);
    // Divide the 64-bit counts so the counter array does not saturate.
    const uint64_t scale = std::max<uint64_t>(1, fp.accesses / 40000);
    for (uint32_t k = 0; k < rdd.numBuckets(); ++k) {
        uint64_t count = 0;
        for (uint32_t d = k * 4 + 1; d <= (k + 1) * 4; ++d)
            count += fp.counts[d - 1];
        rdd.addBucket(k, count / scale, 0);
    }
    rdd.addBucket(0, 0, fp.accesses / scale);
    const std::vector<EPoint> curve = HitRateModel(16).curve(rdd);

    Metrics m;
    double e_max = 0.0;
    uint32_t e_arg = 0;
    for (const EPoint &p : curve)
        if (p.e > e_max) {
            e_max = p.e;
            e_arg = p.dp;
        }
    m["e_max"] = e_max;
    m["argmax_e"] = e_arg;
    for (uint32_t pd : kFig6Grid) {
        double e = 0.0;
        for (const EPoint &p : curve)
            if (p.dp <= pd)
                e = p.e;
        m["e_" + padded(pd)] = e;
    }
    return m;
}

std::vector<Job>
buildFig6(const SuiteOptions &options)
{
    const SimConfig config = scaledConfig(options, 1'500'000, 600'000);
    std::vector<Job> jobs;
    for (const std::string &bench : kFig6Benches) {
        const std::string prefix = "fig6/" + bench + "/";
        jobs.push_back(metricsJob(
            prefix + "model", seedFor(bench),
            [bench, accesses = config.accesses](const JobContext &ctx) {
                return fig6Model(bench, ctx.seed, accesses);
            }));
        for (uint32_t pd : kFig6Grid) {
            const std::string spec = "SPDP-B:" + std::to_string(pd);
            jobs.push_back(singleCoreJob(prefix + spec, bench, spec, config));
        }
    }
    return jobs;
}

void
reportFig6(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 6: E(d_p) vs the actual hit rate ====\n\n";
    for (const std::string &bench : kFig6Benches) {
        const std::string prefix = "fig6/" + bench + "/";
        const std::optional<double> e_max =
            records.metric(prefix + "model", "e_max");
        if (!e_max) {
            out << "(skipping " << bench << ": model record missing)\n\n";
            continue;
        }
        std::vector<std::optional<double>> measured;
        double hr_max = 0.0;
        uint32_t hr_arg = 0;
        for (uint32_t pd : kFig6Grid) {
            const SimResult *r =
                records.single(prefix + "SPDP-B:" + std::to_string(pd));
            if (!r) {
                measured.emplace_back();
                continue;
            }
            const double hit = r->llcAccesses
                ? static_cast<double>(r->llcHits) / r->llcAccesses
                : 0.0;
            measured.push_back(hit);
            if (hit > hr_max) {
                hr_max = hit;
                hr_arg = pd;
            }
        }

        out << bench << "  (argmax E = "
            << static_cast<uint32_t>(
                   records.metric(prefix + "model", "argmax_e").value_or(0))
            << ", argmax hit rate = " << hr_arg << ")\n";
        Table table({"d_p", "E(d_p)/max", "hitrate/max"});
        for (size_t i = 0; i < kFig6Grid.size(); ++i) {
            const double e =
                records.metric(prefix + "model", "e_" + padded(kFig6Grid[i]))
                    .value_or(0);
            table.addRow(
                {std::to_string(kFig6Grid[i]),
                 Table::num(*e_max > 0 ? e / *e_max : 0.0, 3),
                 measured[i] ? Table::num(hr_max > 0 ? *measured[i] / hr_max
                                                     : 0.0,
                                          3)
                             : "n/a"});
        }
        table.print(out);
        out << "\n";
    }
    out << "Paper reference: the two argmax positions should fall in the "
           "same RDD region and the normalized shapes should track each "
           "other near the optimum.\n";
}

// ---------------------------------------------------------------------------
// fig9_params — Fig. 9: RD sampler size (Full vs Real) and counter step
// S_c, as MPKI normalized to Full / S_c = 1.

struct SamplerColumn
{
    bool full;
    uint32_t step;

    std::string
    label(char sep) const
    {
        return std::string(full ? "Full" : "Real") + sep + "Sc=" +
            std::to_string(step);
    }
};

const std::vector<SamplerColumn> kFig9Columns = {
    {true, 1}, {false, 1}, {false, 2}, {false, 4}, {false, 8}};

std::vector<Job>
buildFig9(const SuiteOptions &options)
{
    const SimConfig config = scaledConfig(options, 2'000'000, 800'000);
    const uint32_t sets = config.hierarchy.llc.numSets();
    std::vector<Job> jobs;
    for (const std::string &bench : SpecSuite::singleCoreNames())
        for (const SamplerColumn &col : kFig9Columns)
            jobs.push_back(singleCoreJob(
                "fig9/" + bench + "/" + col.label(':'), bench,
                [col, sets]() -> std::unique_ptr<ReplacementPolicy> {
                    PdpParams params;
                    params.counterStep = col.step;
                    if (col.full)
                        params.sampler = RdSamplerParams::full(sets);
                    return std::make_unique<PdpPolicy>(params);
                },
                config));
    return jobs;
}

void
reportFig9(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 9: PDP parameter exploration (MPKI normalized to "
           "Full, S_c=1) ====\n\n";
    std::vector<std::string> header = {"benchmark"};
    for (const SamplerColumn &col : kFig9Columns)
        header.push_back(col.label(' '));
    Table table(header);
    std::vector<Accumulator> avgs(kFig9Columns.size());
    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const std::string prefix = "fig9/" + bench + "/";
        std::vector<const SimResult *> results;
        for (const SamplerColumn &col : kFig9Columns)
            results.push_back(records.single(prefix + col.label(':')));
        if (std::count(results.begin(), results.end(), nullptr) > 0) {
            out << "(skipping " << bench << ": records missing)\n";
            continue;
        }
        const double base = results.front()->mpki;
        std::vector<std::string> row = {bench};
        for (size_t i = 0; i < results.size(); ++i) {
            const double norm = base > 0 ? results[i]->mpki / base : 0.0;
            row.push_back(Table::num(norm, 3));
            avgs[i].add(norm);
        }
        table.addRow(row);
    }
    std::vector<std::string> avg_row = {"AVERAGE"};
    for (const Accumulator &avg : avgs)
        avg_row.push_back(Table::num(avg.mean(), 3));
    table.addRow(avg_row);
    table.print(out);
    out << "\nPaper reference: all columns within a few percent of 1.0; "
           "the Real sampler tracks Full; S_c=4 is the chosen "
           "overhead/performance trade-off.\n";
}

// ---------------------------------------------------------------------------
// fig11_phases — Fig. 11 on the phase-change benchmarks: (a) the PD
// recompute interval, (b) DRRIP and PDP-8 vs DIP, (c) PDP-8's PD over
// time.  The PDP-8 job of (b) also records the PD history of (c).

const std::vector<std::pair<std::string, uint64_t>> kFig11Intervals = {
    {"256K", 256 * 1024}, {"1M", 1u << 20}, {"2M", 2u << 20},
    {"4M", 4u << 20},     {"8M", 8u << 20}};

/** Fewest PD recomputes that make a Fig. 11c series. */
constexpr size_t kMinRecomputes = 3;

/** PDP-8 (n_c = 8, 512K-access recompute interval) with its PD history:
 *  `recomputes` plus one pd_<i> metric per recomputation. */
Job
pdHistoryJob(const std::string &bench, const SimConfig &config)
{
    Job job;
    job.key = "fig11/" + bench + "/PDP-8";
    job.seed = seedFor(bench);
    job.run = [bench, config](const JobContext &ctx) {
        std::unique_ptr<PdpPolicy> policy = makeDynamicPdp(8);
        const PdpPolicy &pdp = *policy;
        auto gen = SpecSuite::make(bench, ctx.seed);
        Hierarchy hierarchy = makeHierarchy(config, std::move(policy));
        JobOutcome outcome;
        outcome.single = runSingleCore(*gen, hierarchy, config);
        const std::vector<PdSample> &history = pdp.pdHistory();
        outcome.metrics["recomputes"] = static_cast<double>(history.size());
        for (size_t i = 0; i < history.size(); ++i)
            outcome.metrics["pd_" + padded(i)] = history[i].pd;
        return outcome;
    };
    return job;
}

std::vector<Job>
buildFig11(const SuiteOptions &options)
{
    // Phased benchmarks cycle with periods of 1.5M-2.5M accesses; run
    // long enough to see several phase transitions.
    const SimConfig config = scaledConfig(options, 6'000'000, 1'000'000);
    std::vector<Job> jobs;
    for (const std::string &bench : SpecSuite::phasedNames()) {
        const std::string prefix = "fig11/" + bench + "/";
        for (const auto &[label, interval] : kFig11Intervals)
            jobs.push_back(singleCoreJob(
                prefix + "interval:" + label, bench,
                [interval]() -> std::unique_ptr<ReplacementPolicy> {
                    PdpParams params;
                    params.recomputeInterval = interval;
                    return std::make_unique<PdpPolicy>(params);
                },
                config));
        for (const char *policy : {"DIP", "DRRIP"})
            jobs.push_back(singleCoreJob(prefix + policy, bench, policy,
                                         config));
        jobs.push_back(pdHistoryJob(bench, config));
    }
    return jobs;
}

void
reportFig11(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 11a: PD recompute interval (IPC normalized to the "
           "256K interval) ====\n\n";
    std::vector<std::string> header = {"benchmark"};
    for (const auto &[label, interval] : kFig11Intervals)
        header.push_back(label);
    Table interval_table(header);
    for (const std::string &bench : SpecSuite::phasedNames()) {
        const std::string prefix = "fig11/" + bench + "/interval:";
        const SimResult *base =
            records.single(prefix + kFig11Intervals.front().first);
        std::vector<std::string> row = {bench};
        for (const auto &[label, interval] : kFig11Intervals) {
            const SimResult *r = records.single(prefix + label);
            row.push_back(r && base ? Table::num(base->ipc > 0
                                                     ? r->ipc / base->ipc
                                                     : 0.0,
                                                 3)
                                    : "n/a");
        }
        interval_table.addRow(row);
    }
    interval_table.print(out);

    out << "\n==== Fig. 11b: policies on the phased benchmarks (IPC vs "
           "DIP) ====\n\n";
    Table policy_table({"benchmark", "DRRIP", "PDP-8"});
    for (const std::string &bench : SpecSuite::phasedNames()) {
        const std::string prefix = "fig11/" + bench + "/";
        const SimResult *dip = records.single(prefix + "DIP");
        std::vector<std::string> row = {bench};
        for (const char *policy : {"DRRIP", "PDP-8"}) {
            const SimResult *r = records.single(prefix + policy);
            row.push_back(r && dip ? Table::pct(r->ipc / dip->ipc - 1.0)
                                   : "n/a");
        }
        policy_table.addRow(row);
    }
    policy_table.print(out);

    out << "\n==== Fig. 11c: PDP-8's PD over time (one sample per "
           "recomputation) ====\n\n";
    for (const std::string &bench : SpecSuite::phasedNames()) {
        const std::string key = "fig11/" + bench + "/PDP-8";
        const std::optional<double> recomputes =
            records.metric(key, "recomputes");
        if (!recomputes) {
            out << bench << ": n/a\n";
            continue;
        }
        const auto n = static_cast<size_t>(*recomputes);
        out << bench << " (" << n << " recompute(s)): ";
        if (n < kMinRecomputes) {
            out << "run too short for Fig. 11c (needs >= "
                << kMinRecomputes << "; raise --scale)\n";
            continue;
        }
        for (size_t i = 0; i < n; ++i)
            out << records.metric(key, "pd_" + padded(i)).value_or(0) << " ";
        out << "\n";
    }

    out << "\nPaper reference: the PD series flips between the phases' "
           "distinct values; long reset intervals blur the phases and "
           "lose IPC.\n";
}

// ---------------------------------------------------------------------------
// prefetch — Sec. 6.5: with the stream prefetcher filling the LLC,
// prefetch-unaware PDP-8 and its two prefetch-aware variants vs DRRIP.
// Each cell is its own sequential job because it records its LLC's
// prefetch fills beside the result.

/** One prefetching cell; records the LLC's prefetch fills beside the
 *  result, since a variant can only differ from unaware PDP-8 where
 *  some prefetch was filled. */
Job
prefetchJob(const std::string &bench, const PrefetchVariant &variant,
            const SimConfig &config)
{
    Job job;
    job.key = "prefetch/" + bench + "/" + variant.key;
    job.seed = seedFor(bench);
    job.run = [bench, makePol = variant.makePolicy,
               config](const JobContext &ctx) {
        auto gen = SpecSuite::make(bench, ctx.seed);
        Hierarchy hierarchy = makeHierarchy(config, makePol());
        JobOutcome outcome;
        outcome.single = runSingleCore(*gen, hierarchy, config);
        outcome.metrics["llc_prefetch_fills"] =
            static_cast<double>(hierarchy.llc().stats().prefetchFills);
        return outcome;
    };
    return job;
}

std::vector<Job>
buildPrefetch(const SuiteOptions &options)
{
    SimConfig config = scaledConfig(options);
    config.withPrefetcher = true;
    std::vector<Job> jobs;
    for (const std::string &bench : SpecSuite::singleCoreNames())
        for (const PrefetchVariant &variant : prefetchVariants())
            jobs.push_back(prefetchJob(bench, variant, config));
    return jobs;
}

void
reportPrefetch(std::ostream &out, const RecordLookup &records)
{
    const std::vector<PrefetchVariant> variants = prefetchVariants();
    out << "==== Sec. 6.5: prefetch-aware PDP (IPC vs prefetching DRRIP) "
           "====\n\n";
    std::vector<std::string> header = {"benchmark"};
    for (size_t v = 1; v < variants.size(); ++v)
        header.push_back(variants[v].label);
    Table ipc_table(header);
    header.insert(header.begin() + 1, variants.front().label);
    Table fill_table(header);

    std::vector<Accumulator> avgs(variants.size());
    std::vector<double> fills(variants.size(), 0.0);
    const std::vector<std::string> benches = SpecSuite::singleCoreNames();
    std::vector<std::string> unfilled;
    for (const std::string &bench : benches) {
        const std::string prefix = "prefetch/" + bench + "/";
        const SimResult *drrip = records.single(prefix + "DRRIP");
        std::vector<std::string> ipc_row = {bench};
        std::vector<std::string> fill_row = {bench};
        for (size_t v = 0; v < variants.size(); ++v) {
            const std::string key = prefix + variants[v].key;
            const SimResult *r = records.single(key);
            const std::optional<double> filled =
                records.metric(key, "llc_prefetch_fills");
            fill_row.push_back(
                filled ? std::to_string(static_cast<uint64_t>(*filled))
                       : "n/a");
            fills[v] += filled.value_or(0);
            if (v == 0)
                continue;
            if (!r || !drrip) {
                ipc_row.push_back("n/a");
                continue;
            }
            const double gain = r->ipc / drrip->ipc - 1.0;
            ipc_row.push_back(Table::pct(gain));
            avgs[v].add(gain);
        }
        ipc_table.addRow(ipc_row);
        fill_table.addRow(fill_row);
        if (records.metric(prefix + "PDP-8", "llc_prefetch_fills") == 0.0)
            unfilled.push_back(bench);
    }
    std::vector<std::string> avg_row = {"AVERAGE"};
    std::vector<std::string> total_row = {"TOTAL"};
    for (size_t v = 0; v < variants.size(); ++v) {
        if (v > 0)
            avg_row.push_back(Table::pct(avgs[v].mean()));
        total_row.push_back(std::to_string(static_cast<uint64_t>(fills[v])));
    }
    ipc_table.addRow(avg_row);
    fill_table.addRow(total_row);
    ipc_table.print(out);
    out << "\nLLC prefetch fills (measured phase):\n\n";
    fill_table.print(out);

    if (!unfilled.empty()) {
        out << "\nnote: unaware PDP-8 filled no LLC prefetch on "
            << unfilled.size() << " of " << benches.size()
            << " benchmarks, so pf-bypass has nothing to bypass and "
               "cannot differ from PDP-8 there:";
        for (const std::string &bench : unfilled)
            out << " " << bench;
        out << "\n";
    }
    out << "\nPaper reference: aware variants >= unaware PDP >= DRRIP "
           "under prefetching.\n";
}

// ---------------------------------------------------------------------------
// hardware — Fig. 8 (the PD-compute processor) and Sec. 6.2 (SRAM
// overhead).  Nothing is simulated and --scale does not apply: each job
// evaluates one table row of a hardware model.

const std::vector<uint32_t> kPdprocSteps = {1, 2, 4, 8, 16};
const std::vector<std::string> kSharedOverheadPolicies = {
    "TA-DRRIP", "UCP", "PIPP", "PDP-part:16"};

/** A plausible RDD at counter step `step`: a near peak, a far peak and
 *  small-RD noise, drawn from `seed`. */
RdCounterArray
syntheticRdd(uint32_t step, uint64_t seed)
{
    RdCounterArray rdd(kPaperDMax, step);
    Rng rng(seed);
    const uint32_t peak1 = 32 + static_cast<uint32_t>(rng.below(48));
    const uint32_t peak2 = 120 + static_cast<uint32_t>(rng.below(100));
    for (int i = 0; i < 4000; ++i) {
        const double u = rng.uniform();
        uint32_t rd;
        if (u < 0.5)
            rd = peak1 + static_cast<uint32_t>(rng.below(9)) - 4;
        else if (u < 0.8)
            rd = peak2 + static_cast<uint32_t>(rng.below(13)) - 6;
        else
            rd = 1 + static_cast<uint32_t>(rng.below(24));
        rdd.recordHit(rd);
    }
    for (int i = 0; i < 6000; ++i)
        rdd.recordAccess();
    return rdd;
}

/** One SRAM-overhead row of `policy` on `llc`. */
Job
overheadJob(const std::string &key, const CacheConfig &llc,
            const std::string &policy)
{
    return metricsJob(key, seedFor(key), [llc, policy](const JobContext &) {
        const OverheadReport r = OverheadModel(llc).report(policy);
        return Metrics{{"bits", static_cast<double>(r.bits)},
                       {"percent_of_llc", r.percentOfLlc}};
    });
}

std::vector<Job>
buildHardware(const SuiteOptions &)
{
    std::vector<Job> jobs;
    // The synthetic RDDs keep their fixed seeds (7 + S_c, and 99 for the
    // latency row) as the job seeds.
    for (uint32_t step : kPdprocSteps)
        jobs.push_back(metricsJob(
            "hardware/pdproc/Sc=" + std::to_string(step), 7 + step,
            [step](const JobContext &ctx) {
                const RdCounterArray rdd = syntheticRdd(step, ctx.seed);
                const PdProcResult hw = pdprocBestPd(rdd);
                return Metrics{
                    {"buckets", static_cast<double>(rdd.numBuckets())},
                    {"instructions", static_cast<double>(hw.instructions)},
                    {"cycles", static_cast<double>(hw.cycles)},
                    {"hw_pd", static_cast<double>(hw.pd)},
                    {"model_pd",
                     static_cast<double>(HitRateModel(16).bestPd(rdd))}};
            }));
    jobs.push_back(metricsJob(
        "hardware/pdproc/latency", 99, [](const JobContext &ctx) {
            const PdProcResult hw = pdprocBestPd(syntheticRdd(4, ctx.seed));
            return Metrics{{"cycles", static_cast<double>(hw.cycles)}};
        }));
    for (const OverheadReport &r :
         OverheadModel(CacheConfig::paperLlc()).standardReports())
        jobs.push_back(overheadJob("hardware/overhead/2MB/" + r.policy,
                                   CacheConfig::paperLlc(), r.policy));
    for (const std::string &policy : kSharedOverheadPolicies)
        jobs.push_back(overheadJob("hardware/overhead/32MB/" + policy,
                                   CacheConfig::paperLlc(16), policy));
    return jobs;
}

/** A Sec. 6.2 row: policy, bits, KB, % of LLC ("n/a" when the record
 *  is missing). */
std::vector<std::string>
overheadRow(const RecordLookup &records, const std::string &key,
            const std::string &policy)
{
    const std::optional<double> bits = records.metric(key, "bits");
    std::vector<std::string> row = {policy};
    if (bits) {
        row.push_back(std::to_string(static_cast<uint64_t>(*bits)));
        row.push_back(Table::num(*bits / 8192.0, 1));
        row.push_back(
            Table::num(records.metric(key, "percent_of_llc").value_or(0),
                       2) +
            "%");
    } else {
        row.insert(row.end(), {"n/a", "n/a", "n/a"});
    }
    return row;
}

void
reportHardware(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 8: the PD-compute special-purpose processor "
           "====\n\n";
    Table table({"S_c", "buckets", "instructions", "cycles",
                 "cycles/bucket", "hw PD", "model PD"});
    std::string agree, apart;
    for (uint32_t step : kPdprocSteps) {
        const std::string key = "hardware/pdproc/Sc=" + std::to_string(step);
        const auto m = [&](const char *name) {
            return records.metric(key, name).value_or(0);
        };
        if (!records.metric(key, "cycles")) {
            table.addRow({std::to_string(step), "n/a", "n/a", "n/a", "n/a",
                          "n/a", "n/a"});
            continue;
        }
        const auto as_int = [](double v) {
            return std::to_string(static_cast<uint64_t>(v));
        };
        table.addRow({std::to_string(step), as_int(m("buckets")),
                      as_int(m("instructions")), as_int(m("cycles")),
                      Table::num(m("cycles") / m("buckets"), 1),
                      as_int(m("hw_pd")), as_int(m("model_pd"))});
        std::string &list =
            std::abs(m("hw_pd") - m("model_pd")) <= step ? agree : apart;
        list += (list.empty() ? "" : ", ") + std::to_string(step);
    }
    table.print(out);

    if (const auto cycles = records.metric("hardware/pdproc/latency",
                                           "cycles")) {
        out << "\nPD search latency: " << static_cast<uint64_t>(*cycles)
            << " cycles at 500 MHz = " << Table::num(*cycles / 500e6 * 1e6, 2)
            << " us per 512K-access interval ("
            << Table::num(100.0 * *cycles / (512.0 * 1024), 3)
            << "% of the interval even at one LLC access per cycle).\n";
    }
    out << "Fixed-point (hardware) vs floating-point (model) PD: within one "
           "counter step at S_c = "
        << (agree.empty() ? "none" : agree) << "; further apart at S_c = "
        << (apart.empty() ? "none" : apart) << ".\n";

    out << "\n==== Sec. 6.2: storage overhead (2 MB, 16-way LLC) ====\n\n";
    Table llc_table({"policy", "bits", "KB", "% of LLC", "notes"});
    for (const OverheadReport &r :
         OverheadModel(CacheConfig::paperLlc()).standardReports()) {
        std::vector<std::string> row =
            overheadRow(records, "hardware/overhead/2MB/" + r.policy, r.policy);
        row.push_back(r.notes);
        llc_table.addRow(row);
    }
    llc_table.print(out);

    out << "\n16-core shared LLC (32 MB), partitioned PDP:\n\n";
    Table shared_table({"policy", "bits", "KB", "% of LLC"});
    for (const std::string &policy : kSharedOverheadPolicies)
        shared_table.addRow(
            overheadRow(records, "hardware/overhead/32MB/" + policy, policy));
    shared_table.print(out);

    out << "\nPaper reference: the full PD search takes a few thousand "
           "cycles, negligible against the 512K-access recompute "
           "interval; PDP overhead is manageable (below ~1% of the LLC) "
           "and comparable to DIP/DRRIP.\n";
}

} // namespace

std::vector<PrefetchVariant>
prefetchVariants()
{
    const auto pdp = [](PdpParams::PrefetchMode mode) -> PolicyFactory {
        return [mode]() -> std::unique_ptr<ReplacementPolicy> {
            PdpParams params;
            params.prefetchMode = mode;
            return std::make_unique<PdpPolicy>(params);
        };
    };
    return {
        {"DRRIP", "DRRIP", [] { return makePolicy("DRRIP"); }},
        {"PDP-8", "PDP-8", pdp(PdpParams::PrefetchMode::Normal)},
        {"PDP-8:pf-PD1", "PDP-8 pf->PD=1",
         pdp(PdpParams::PrefetchMode::InsertPdOne)},
        {"PDP-8:pf-bypass", "PDP-8 pf-bypass",
         pdp(PdpParams::PrefetchMode::Bypass)},
    };
}

std::vector<Suite>
figureSuites()
{
    return {
        {"fig1_rdd", "Figs. 1 and 5b: exact RDDs of the LLC access stream",
         buildFig1, reportFig1},
        {"fig5a_occupancy",
         "Fig. 5a: LLC access and occupancy breakdown, DRRIP vs best "
         "SPDP-NB/SPDP-B",
         buildFig5a, reportFig5a},
        {"fig6_model", "Fig. 6: hit-rate model E(d_p) vs simulated SPDP-B",
         buildFig6, reportFig6},
        {"fig9_params",
         "Fig. 9: RD sampler (Full vs Real) and counter step S_c",
         buildFig9, reportFig9},
        {"fig11_phases",
         "Fig. 11: PD recompute interval, policies and PD over time on "
         "the phased benchmarks",
         buildFig11, reportFig11},
        {"prefetch",
         "Sec. 6.5: prefetch-aware PDP vs DRRIP with a stream prefetcher",
         buildPrefetch, reportPrefetch},
        {"hardware",
         "Fig. 8 and Sec. 6.2: PD-compute processor cycles and SRAM "
         "overhead",
         buildHardware, reportHardware},
    };
}

} // namespace runner
} // namespace pdp
