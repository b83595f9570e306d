/**
 * @file
 * The analytic model's suites: model_validation (the estimator's
 * predictions against simulation) and explore (the static-PD design
 * space, exhaustive or model-pruned).
 */

#include "runner/suites.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <ostream>

#include "core/pdp_policy.h"
#include "model/analytic_model.h"
#include "runner/suite_helpers.h"
#include "sim/policy_factory.h"
#include "sim/static_pd_search.h"
#include "trace/rdd_fingerprint.h"
#include "trace/spec_suite.h"
#include "util/stats.h"
#include "util/table.h"

namespace pdp
{
namespace runner
{

namespace
{

// ---------------------------------------------------------------------------
// model_validation — the analytic estimator (src/model/) cross-validated
// against the simulator on the single-core workload set: fingerprint
// each benchmark once, predict a PD spread for both SPDP families plus
// LRU, simulate the same cells in one multi-policy call, and attach the
// per-point |predicted - simulated| error to every record's metrics.
// Metrics survive the deterministic JSON form, so BENCH_model_validation
// .json doubles as the model's machine-readable accuracy ledger.

/** PDs each benchmark is cross-validated at: a power spread over the
 *  static grid's range (the full 19-point grid triples the suite's cost
 *  for no extra information about model quality). */
const std::vector<uint32_t> kValidationPds = {16, 32, 64, 128, 256};

/** What a model job takes from one benchmark's fingerprint: the cells
 *  to simulate, and the job's records — first one per cell (its key and
 *  the metrics the model gave it), then any that are no cell's own. */
struct ModelPlan
{
    std::vector<SingleCoreCell> cells;
    std::vector<KeyedOutcome> records;
};

double
hitRate(const SimResult &r)
{
    return r.llcAccesses ? static_cast<double>(r.llcHits) / r.llcAccesses
                         : 0.0;
}

/**
 * One benchmark's model job: fingerprint the config's measured window
 * once, let `plan` pick and predict the cells in microseconds, simulate
 * them all in one runCells sweep and add each cell's outcome to its
 * record.
 */
Job
modelJob(std::string key, const std::string &bench, const SimConfig &config,
         std::function<ModelPlan(const RddFingerprint &)> plan)
{
    Job job;
    job.key = std::move(key);
    job.seed = seedFor(bench);
    job.runMany = [bench, config,
                   plan = std::move(plan)](const JobContext &ctx) {
        FingerprintOptions fopt;
        fopt.accesses = config.accesses;
        fopt.warmup = config.warmup;
        ModelPlan chosen = plan(fingerprintBenchmark(bench, ctx.seed, fopt));
        std::vector<JobOutcome> outcomes = runCells(chosen.cells, ctx);
        for (size_t c = 0; c < outcomes.size(); ++c) {
            JobOutcome &outcome = chosen.records[c].outcome;
            outcome.single = std::move(outcomes[c].single);
            outcome.metrics.merge(outcomes[c].metrics);
        }
        return std::move(chosen.records);
    };
    return job;
}

/** "SPDP-B:" or "SPDP-NB:", the record-key stem of one static-PD cell. */
const char *
spdpFamily(bool bypass)
{
    return bypass ? "SPDP-B:" : "SPDP-NB:";
}

/** model_validation's per-cell error: the simulated hit rate (and, for
 *  a bypassing cell, bypass fraction) beside the predicted `hit`. */
LlcProbe
errorProbe(double hit, bool bypass)
{
    return [hit, bypass](Cache &llc) -> ProbeReadout {
        return [hit, bypass, &llc](Metrics &m) {
            const double sim = llc.stats().hitRate();
            m["sim_hit_rate"] = sim;
            m["abs_err"] = std::fabs(hit - sim);
            if (bypass)
                m["sim_bypass"] = llc.stats().bypassRate();
        };
    };
}

/** model_validation's cells of `bench`: kValidationPds under SPDP-NB,
 *  then SPDP-B, then LRU, each with the model's prediction and error
 *  bar, and the error probe. */
ModelPlan
validationPlan(const RddFingerprint &fp, const std::string &bench,
               const SimConfig &config)
{
    const model::AnalyticModel estimator;
    ModelPlan plan;
    const auto add = [&](const std::string &cell, PolicyFactory makePol,
                         const model::Prediction &pred, bool bypass) {
        plan.cells.push_back({bench, std::move(makePol), config,
                              errorProbe(pred.hitRate, bypass)});
        KeyedOutcome &record = plan.records.emplace_back();
        record.key = "model_validation/" + bench + "/" + cell;
        auto &m = record.outcome.metrics;
        m["pred_hit_rate"] = pred.hitRate;
        m["err_bar"] = pred.errorBar;
        if (bypass)
            m["pred_bypass"] = pred.bypassFraction;
    };
    for (bool byp : {false, true})
        for (uint32_t pd : kValidationPds)
            add(spdpFamily(byp) + std::to_string(pd), spdpPolicy(byp, pd),
                estimator.predictPdpAt(fp, pd, byp), byp);
    add("LRU", [] { return makePolicy("LRU"); }, estimator.predictLru(fp),
        false);
    return plan;
}

std::vector<Job>
buildModelValidation(const SuiteOptions &options)
{
    // The window the balance model was calibrated on (tests/test_model
    // pins the committed error bounds to it).
    const SimConfig config = scaledConfig(options, 2'000'000, 600'000);
    std::vector<Job> jobs;
    for (const std::string &bench : SpecSuite::singleCoreNames())
        jobs.push_back(modelJob(
            "model_validation/" + bench + "/lockstep", bench, config,
            [bench, config](const RddFingerprint &fp) {
                return validationPlan(fp, bench, config);
            }));
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

} // namespace

PolicyFactory
spdpPolicy(bool bypass, uint32_t pd)
{
    return [bypass, pd]() -> std::unique_ptr<ReplacementPolicy> {
        return bypass ? makeSpdpB(pd) : makeSpdpNb(pd);
    };
}

ExplorePlan
planExplore(const RddFingerprint &fp, unsigned top_k, uint64_t audit_seed)
{
    const std::vector<uint32_t> grid = defaultPdGrid();
    const model::AnalyticModel estimator;

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

namespace
{

/** The pruned explore cells of `bench`: planExplore's contenders with
 *  the exhaustive grid's record keys, then one "model" summary record
 *  (pure deterministic metrics, no wall-clock). */
ModelPlan
explorePlan(const RddFingerprint &fp, const std::string &bench,
            const SimConfig &config)
{
    const std::string prefix = "explore/" + bench + "/";
    const ExplorePlan plan =
        planExplore(fp, kExploreTopK, seedFor(bench + "/explore-audit"));
    ModelPlan cells;
    for (const ExploreCell &cell : plan.chosen) {
        cells.cells.push_back(
            {bench, spdpPolicy(cell.bypass, cell.pd), config, {}});
        KeyedOutcome &record = cells.records.emplace_back();
        record.key =
            prefix + spdpFamily(cell.bypass) + std::to_string(cell.pd);
        record.outcome.metrics = {{"pred_hit_rate", cell.predicted},
                                  {"audit_cell", cell.audit ? 1.0 : 0.0}};
    }

    KeyedOutcome &summary = cells.records.emplace_back();
    summary.key = prefix + "model";
    auto &m = summary.outcome.metrics;
    m["grid_cells"] = static_cast<double>(plan.gridCells);
    m["simulated_cells"] = static_cast<double>(plan.chosen.size());
    m["top_k"] = static_cast<double>(kExploreTopK);
    m["pred_best_pd_nb"] = static_cast<double>(plan.predBestPd[0]);
    m["pred_best_pd_b"] = static_cast<double>(plan.predBestPd[1]);
    m["pred_best_hit_nb"] = plan.predBestHit[0];
    m["pred_best_hit_b"] = plan.predBestHit[1];
    m["err_bar"] = plan.errorBar;
    return cells;
}

std::vector<Job>
buildExplore(const SuiteOptions &options)
{
    const SimConfig config = scaledConfig(options, 2'000'000, 600'000);
    std::vector<Job> jobs;
    for (const std::string &bench : kExploreBenches) {
        const std::string prefix = "explore/" + bench + "/";
        if (options.explore) {
            // The top-K contenders per family plus the audit cell.
            jobs.push_back(
                modelJob(prefix + "pruned", bench, config,
                         [bench, config](const RddFingerprint &fp) {
                             return explorePlan(fp, bench, config);
                         }));
            continue;
        }
        for (bool byp : {false, true})
            for (uint32_t pd : defaultPdGrid())
                jobs.push_back(singleCoreJob(
                    prefix + spdpFamily(byp) + std::to_string(pd), bench,
                    spdpPolicy(byp, pd), config));
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
            const std::string fam = spdpFamily(byp);
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
            const double hit = hitRate(*best.result);
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

} // namespace

std::vector<Suite>
modelSuites()
{
    return {
        {"model_validation",
         "analytic estimator vs simulator: per-point |pred - sim| "
         "over the single-core workload set",
         buildModelValidation, reportModelValidation},
        {"explore",
         "static-PD design space: exhaustive grid, or model-pruned "
         "top-K contenders with --explore",
         buildExplore, reportExplore},
    };
}

} // namespace runner
} // namespace pdp
