/**
 * @file
 * The simulated policy comparisons: Fig. 10 (single-core policies vs
 * DIP), Fig. 4 (best-eps DRRIP vs static PDP, whose report also renders
 * Fig. 2 and Table 2) and Fig. 12 (shared-cache partitioning).
 */

#include "runner/suites.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "core/pdp_policy.h"
#include "policies/rrip.h"
#include "runner/suite_helpers.h"
#include "sim/policy_factory.h"
#include "sim/static_pd_search.h"
#include "trace/spec_suite.h"
#include "trace/workload.h"
#include "util/stats.h"
#include "util/table.h"

namespace pdp
{
namespace runner
{

namespace
{

// ---------------------------------------------------------------------------
// fig10_single_core — Fig. 10: single-core policies vs DIP.

std::vector<Job>
buildFig10(const SuiteOptions &options)
{
    const SimConfig config = scaledConfig(options);
    std::vector<Job> jobs;
    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const std::string prefix = "fig10/" + bench + "/";
        for (const std::string &policy : fig10PolicyNames())
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

    // The roster after its DIP baseline.
    const std::vector<std::string> roster = fig10PolicyNames();
    const std::vector<std::string> policies(roster.begin() + 1,
                                            roster.end());

    Table miss_table([&policies] {
        std::vector<std::string> h = {"benchmark"};
        for (const auto &p : policies)
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

        for (const std::string &policy : policies)
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

    std::vector<std::string> all_cols = policies;
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

} // namespace

std::vector<Suite>
policySuites()
{
    return {
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
}

} // namespace runner
} // namespace pdp
