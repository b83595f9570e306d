/**
 * @file
 * The analytic estimator (src/model/): solver edge cases, the typed
 * PredictError refusal on frozen counter arrays, rescaling invariants,
 * the LRU stack-distance conversion, cross-validation error bounds
 * against lockstep simulation, and the model-pruned explorer's winner
 * reproduction + deterministic selection.
 *
 * The validation bounds are the repo's committed accuracy contract:
 * every (benchmark, cell) below asserts |predicted - simulated| within
 * a per-benchmark bound plus the prediction's own error bar.  Most
 * benchmarks sit under the 5% acceptance bar; the handful of honest
 * hard points (phase-changing hmmer, LRU-friendly astar) carry wider
 * bounds stated explicitly rather than hidden behind a loose blanket.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pdp_policy.h"
#include "core/rdd.h"
#include "model/analytic_model.h"
#include "policies/replacement_policy.h"
#include "runner/job.h"
#include "runner/suites.h"
#include "sim/lockstep_sweep.h"
#include "sim/policy_factory.h"
#include "sim/single_core_sim.h"
#include "test_support.h"
#include "trace/rdd_fingerprint.h"
#include "trace/spec_suite.h"

using namespace pdp;
using namespace pdp::model;

namespace
{

/** Zeroed fingerprint at an explicit geometry (per-distance counts). */
RddFingerprint
emptyFingerprint(uint32_t sets = 2048, uint32_t d_max = 1024)
{
    RddFingerprint fp;
    fp.benchmark = "synthetic";
    fp.sets = sets;
    fp.dMax = d_max;
    fp.counts.assign(d_max, 0);
    fp.pairCounts.assign(d_max, 0);
    return fp;
}

bool
samePrediction(const Prediction &a, const Prediction &b)
{
    if (a.hitRate != b.hitRate || a.pd != b.pd || a.bestPd != b.bestPd ||
        a.bypassFraction != b.bypassFraction || a.errorBar != b.errorBar ||
        a.eCurve.size() != b.eCurve.size())
        return false;
    for (size_t i = 0; i < a.eCurve.size(); ++i)
        if (a.eCurve[i].dp != b.eCurve[i].dp ||
            a.eCurve[i].e != b.eCurve[i].e)
            return false;
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// Solver edge cases.

TEST(AnalyticModelEdge, EmptyRddPredictsZeroEverywhere)
{
    const AnalyticModel estimator;
    const RddFingerprint fp = emptyFingerprint();
    for (uint32_t pd : {1u, 16u, 64u, 256u}) {
        const Prediction pred = estimator.predictPdpAt(fp, pd);
        EXPECT_EQ(pred.hitRate, 0.0) << pd;
        EXPECT_EQ(pred.bypassFraction, 0.0) << pd;
        EXPECT_EQ(pred.errorBar, 0.0) << pd;
    }
    EXPECT_EQ(estimator.predictLru(fp).hitRate, 0.0);
    // The at-best entry point must survive a curve with no information.
    const Prediction best = estimator.predictPdp(fp);
    EXPECT_EQ(best.hitRate, 0.0);
    EXPECT_GE(best.pd, 1u);
}

TEST(AnalyticModelEdge, SingleDistanceMassIsCapturedByACoveringPd)
{
    // Half the accesses reuse at set-distance 10, the rest never
    // return.  A PD past the peak protects the reuses; a PD short of it
    // must predict strictly less.
    RddFingerprint fp = emptyFingerprint();
    fp.accesses = 1'000'000;
    fp.counts[9] = 500'000;

    const AnalyticModel estimator;
    const Prediction covering = estimator.predictPdpAt(fp, 12);
    const Prediction short_pd = estimator.predictPdpAt(fp, 4);
    const Prediction over_pd = estimator.predictPdpAt(fp, 64);
    EXPECT_NEAR(covering.hitRate, 0.5, 1e-3); // every reuse protected
    EXPECT_LE(covering.hitRate, 0.5 + 1e-9);  // only half can ever hit
    // Protection expiring before the reuse loses hits; protecting far
    // past it clogs the sets with the never-reused half (each dead
    // line holds a way for d_p accesses) and must lose even more.
    EXPECT_GT(covering.hitRate, short_pd.hitRate);
    EXPECT_GT(covering.hitRate, over_pd.hitRate);
    EXPECT_GT(short_pd.hitRate, over_pd.hitRate);

    // The E-maximizing PD protects just past the peak: the first bucket
    // edge at or beyond distance 10, not the whole reach.
    const Prediction best = estimator.predictPdp(fp);
    EXPECT_GE(best.bestPd, 9u);
    EXPECT_LE(best.bestPd, 16u);
}

TEST(AnalyticModelEdge, AllMassBeyondReachIsAnErrorBarNotAHit)
{
    RddFingerprint fp = emptyFingerprint();
    fp.accesses = 1'000'000;
    fp.tailMass = 600'000; // every observed reuse is past the reach

    const AnalyticModel estimator;
    const Prediction pred = estimator.predictPdpAt(fp, 64);
    EXPECT_EQ(pred.hitRate, 0.0);
    EXPECT_NEAR(pred.errorBar, 0.6, 1e-12);
}

TEST(AnalyticModelEdge, RepeatedPredictionsAreBitIdentical)
{
    RddFingerprint fp = emptyFingerprint();
    fp.accesses = 2'000'000;
    for (uint32_t d = 1; d <= 512; ++d) {
        fp.counts[d - 1] = 3000 / d + (d % 7);
        fp.pairCounts[d - 1] = fp.counts[d - 1] / 2;
    }
    const AnalyticModel estimator;
    for (bool bypass : {false, true}) {
        const Prediction a = estimator.predictPdp(fp, bypass);
        const Prediction b = estimator.predictPdp(fp, bypass);
        EXPECT_TRUE(samePrediction(a, b)) << bypass;
        const Prediction c = estimator.predictPdpAt(fp, 48, bypass);
        const Prediction d = estimator.predictPdpAt(fp, 48, bypass);
        EXPECT_TRUE(samePrediction(c, d)) << bypass;
    }
}

TEST(AnalyticModelEdge, EqualPeaksBreakTiesDeterministically)
{
    // Two identical reuse peaks: whatever the best-PD walk prefers, it
    // must prefer it every time (the explorer's ranking feeds off this).
    RddFingerprint fp = emptyFingerprint();
    fp.accesses = 1'000'000;
    fp.counts[19] = 250'000;
    fp.counts[599] = 250'000;

    const AnalyticModel estimator;
    const Prediction first = estimator.predictPdp(fp);
    EXPECT_GE(first.bestPd, 1u);
    for (int i = 0; i < 3; ++i) {
        const Prediction again = estimator.predictPdp(fp);
        EXPECT_TRUE(samePrediction(first, again)) << i;
    }
}

// ---------------------------------------------------------------------
// The typed refusal on unusable hardware counter input.

TEST(AnalyticModelRefusal, FrozenCounterArrayThrowsPredictError)
{
    const AnalyticModel estimator;

    RdCounterArray rdd(256, 4, 8); // 8-bit counters saturate at 255
    for (int i = 0; i < 200; ++i) {
        rdd.recordAccess();
        rdd.recordHit(8);
    }
    ASSERT_FALSE(rdd.frozen());
    EXPECT_NO_THROW({
        const Prediction pred = estimator.predictPdp(rdd);
        EXPECT_GE(pred.hitRate, 0.0);
        EXPECT_LE(pred.hitRate, 1.0);
    });

    // Saturate one bucket: the array freezes and the estimator must
    // refuse instead of extrapolating from a truncated shape.
    for (int i = 0; i < 100; ++i) {
        rdd.recordAccess();
        rdd.recordHit(8);
    }
    ASSERT_TRUE(rdd.frozen());
    try {
        estimator.predictPdp(rdd);
        FAIL() << "expected PredictError on a frozen RdCounterArray";
    } catch (const PredictError &err) {
        EXPECT_NE(std::string(err.what()).find("frozen"),
                  std::string::npos);
    }

    // decay() halves and unfreezes: predictions come back.
    rdd.decay();
    ASSERT_FALSE(rdd.frozen());
    EXPECT_NO_THROW(estimator.predictPdp(rdd));
}

// ---------------------------------------------------------------------
// Rescaling across counter geometries.

TEST(AnalyticModelRescale, IdentityGeometryPreservesMassAndPlacement)
{
    RddFingerprint fp = emptyFingerprint(2048, 1024);
    fp.accesses = 1'000'000;
    fp.counts[49] = 1000; // distance 50
    fp.tailMass = 77;

    const AnalyticModel estimator; // 2048 sets, step 4
    const RddShape shape = estimator.rescale(fp);
    EXPECT_EQ(shape.total, fp.accesses);
    EXPECT_EQ(shape.counts[(50 - 1) / 4], 1000u);
    EXPECT_EQ(shape.hitSum() + shape.tail, fp.hitSum() + fp.tailMass);
}

TEST(AnalyticModelRescale, HalvingTheSetCountDoublesDistances)
{
    // Measured at 4096 sets, predicted for 2048: twice as many lines
    // alias per set, so every set-local distance doubles.
    RddFingerprint fp = emptyFingerprint(4096, 1024);
    fp.accesses = 500'000;
    fp.counts[49] = 1000; // d=50 -> 100
    fp.counts[199] = 400; // d=200 -> 400, past d_max=256 -> tail
    fp.tailMass = 50;

    const AnalyticModel estimator;
    const RddShape shape = estimator.rescale(fp);
    EXPECT_EQ(shape.counts[(100 - 1) / 4], 1000u);
    EXPECT_EQ(shape.tail, fp.tailMass + 400u);
    EXPECT_EQ(shape.hitSum() + shape.tail, fp.hitSum() + fp.tailMass);
}

TEST(AnalyticModelRescale, FingerprintTailBecomesThePredictionErrorBar)
{
    // Satellite contract: profiler tail mass surfaces as the honest
    // error bar on every prediction, never silently dropped.  A
    // deliberately short profile reach forces real overflow (at the
    // default 1024-distance reach the suite benchmarks fully resolve).
    FingerprintOptions fopt;
    fopt.accesses = 300'000;
    fopt.warmup = 100'000;
    fopt.dMax = 64;
    const RddFingerprint fp =
        fingerprintBenchmark("429.mcf", runner::seedFor("429.mcf"), fopt);
    EXPECT_GT(fp.tailMass, 0u); // mcf reuses far past 64 set-accesses

    const AnalyticModel estimator;
    const Prediction pred = estimator.predictPdpAt(fp, 64);
    EXPECT_NEAR(pred.errorBar, fp.tailFraction(), 1e-12);
    EXPECT_NEAR(estimator.predictLru(fp).errorBar, fp.tailFraction(),
                1e-12);
}

// ---------------------------------------------------------------------
// The LRU stack-distance conversion.

TEST(AnalyticModelLru, ShortDistanceReusesAllHit)
{
    // Every reuse at set-distance 4: SD(4) <= 3 distinct lines between
    // touches, far under 16 ways -> all 50% of accesses hit.
    RddFingerprint fp = emptyFingerprint(2048, 4096);
    fp.counts.assign(4096, 0);
    fp.pairCounts.clear();
    fp.accesses = 1'000'000;
    fp.counts[3] = 500'000;

    const AnalyticModel estimator;
    EXPECT_NEAR(estimator.predictLru(fp).hitRate, 0.5, 1e-6);
}

TEST(AnalyticModelLru, DistantReusesAllMiss)
{
    // Every reuse at set-distance 3000: the expected stack depth passes
    // the 16-way capacity long before the reuse arrives.
    RddFingerprint fp = emptyFingerprint(2048, 4096);
    fp.counts.assign(4096, 0);
    fp.pairCounts.clear();
    fp.accesses = 1'000'000;
    fp.counts[2999] = 500'000;

    const AnalyticModel estimator;
    EXPECT_LT(estimator.predictLru(fp).hitRate, 0.01);
}

// ---------------------------------------------------------------------
// Cross-validation against lockstep simulation: the committed accuracy
// contract.  Window matches the model_validation suite at --scale 0.5
// (1M measured / 300k warmup), so the suite's measured errors transfer
// exactly (everything is seed-deterministic).

namespace
{

struct BenchBound
{
    const char *bench;
    /** |predicted - simulated| bound for every SPDP cell. */
    double pdpBound;
    /** Same for the LRU conversion. */
    double lruBound;
};

/** Per-benchmark bounds: measured worst + margin.  soplex, libquantum
 *  and zeusmp sit under the 5% acceptance bar; hmmer (phase change mid
 *  window) and astar (LRU-friendly chains) are the known hard points
 *  and carry honest wider bounds. */
const BenchBound kValidationBounds[] = {
    {"450.soplex", 0.065, 0.03},
    {"462.libquantum", 0.04, 0.03},
    {"434.zeusmp", 0.05, 0.03},
    {"456.hmmer", 0.20, 0.03},
    {"473.astar", 0.11, 0.03},
};

} // namespace

class ModelValidationTest : public ::testing::TestWithParam<BenchBound>
{
};

TEST_P(ModelValidationTest, PredictionTracksSimulationWithinBound)
{
    const BenchBound &bound = GetParam();
    const std::string bench = bound.bench;
    const uint64_t seed = runner::seedFor(bench);

    SimConfig config;
    config.accesses = 1'000'000;
    config.warmup = 300'000;

    FingerprintOptions fopt;
    fopt.accesses = config.accesses;
    fopt.warmup = config.warmup;
    const RddFingerprint fp = fingerprintBenchmark(bench, seed, fopt);
    const AnalyticModel estimator;

    struct Cell
    {
        std::string name;
        Prediction pred;
    };
    std::vector<Cell> cells;
    std::vector<PolicyFactory> factories;
    for (bool byp : {false, true}) {
        for (uint32_t pd : {16u, 64u, 256u}) {
            cells.push_back({(byp ? "SPDP-B:" : "SPDP-NB:") +
                                 std::to_string(pd),
                             estimator.predictPdpAt(fp, pd, byp)});
            factories.push_back(
                [pd, byp]() -> std::unique_ptr<ReplacementPolicy> {
                    return byp ? makeSpdpB(pd) : makeSpdpNb(pd);
                });
        }
    }
    cells.push_back({"LRU", estimator.predictLru(fp)});
    factories.push_back([] { return makePolicy("LRU"); });

    auto gen = SpecSuite::make(bench, seed);
    const std::vector<SimResult> results =
        runSingleCoreLockstep(*gen, config, factories, 1);
    ASSERT_EQ(results.size(), cells.size());

    for (size_t i = 0; i < cells.size(); ++i) {
        const double sim = results[i].llcAccesses
            ? static_cast<double>(results[i].llcHits) /
                static_cast<double>(results[i].llcAccesses)
            : 0.0;
        const double err = std::fabs(cells[i].pred.hitRate - sim);
        const double limit = (cells[i].name == "LRU" ? bound.lruBound
                                                     : bound.pdpBound) +
            cells[i].pred.errorBar;
        EXPECT_LE(err, limit)
            << bench << " " << cells[i].name << ": predicted "
            << cells[i].pred.hitRate << " simulated " << sim;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, ModelValidationTest,
    ::testing::ValuesIn(kValidationBounds), [](const auto &info) {
        std::string name = info.param.bench;
        for (char &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

// ---------------------------------------------------------------------
// The model-pruned explorer.

TEST(ExploreSuite, PrunedSelectionIsDeterministic)
{
    const runner::Suite *suite = runner::findSuite("explore");
    ASSERT_NE(suite, nullptr);

    runner::SuiteOptions options;
    options.scale = 0.1;
    options.explore = true;
    const std::vector<runner::Job> jobs = suite->buildJobs(options);
    const runner::Job *job = nullptr;
    for (const runner::Job &j : jobs)
        if (j.key == "explore/403.gcc/pruned")
            job = &j;
    ASSERT_NE(job, nullptr);
    ASSERT_TRUE(job->runMany != nullptr);

    runner::JobContext ctx;
    ctx.seed = job->seed;
    const std::vector<runner::KeyedOutcome> first = job->runMany(ctx);
    const std::vector<runner::KeyedOutcome> second = job->runMany(ctx);

    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].key, second[i].key);
        EXPECT_EQ(first[i].outcome.metrics, second[i].outcome.metrics)
            << first[i].key;
        ASSERT_EQ(first[i].outcome.single.has_value(),
                  second[i].outcome.single.has_value());
        if (first[i].outcome.single) {
            EXPECT_EQ(first[i].outcome.single->llcMisses,
                      second[i].outcome.single->llcMisses)
                << first[i].key;
        }
    }
}

TEST(ExploreSuite, PrunedRunReproducesTheExhaustiveWinner)
{
    const runner::Suite *suite = runner::findSuite("explore");
    ASSERT_NE(suite, nullptr);
    const std::string bench = "450.soplex";
    const std::string prefix = "explore/" + bench + "/";

    // Pruned side: top-3 contenders per family plus one audit cell.
    runner::SuiteOptions pruned_options;
    pruned_options.scale = 0.2;
    pruned_options.explore = true;
    const std::vector<runner::Job> pruned_jobs =
        suite->buildJobs(pruned_options);
    const runner::Job *job = nullptr;
    for (const runner::Job &j : pruned_jobs)
        if (j.key == prefix + "pruned")
            job = &j;
    ASSERT_NE(job, nullptr);
    runner::JobContext ctx;
    ctx.seed = job->seed;
    const std::vector<runner::KeyedOutcome> outcomes = job->runMany(ctx);
    // 2 families x top-3, one seeded audit cell, the summary record.
    ASSERT_EQ(outcomes.size(), 8u);

    // Exhaustive side: the same suite without --explore emits one
    // independent job per grid cell with identical keys and config.
    runner::SuiteOptions exhaustive_options;
    exhaustive_options.scale = 0.2;
    const std::vector<runner::Job> exhaustive_jobs =
        suite->buildJobs(exhaustive_options);
    std::map<std::string, SimResult> exhaustive;
    for (const runner::Job &j : exhaustive_jobs) {
        if (j.key.rfind(prefix, 0) != 0)
            continue;
        runner::JobContext cell_ctx;
        cell_ctx.seed = j.seed;
        const runner::JobOutcome out = sequentialJob(j).run(cell_ctx);
        ASSERT_TRUE(out.single.has_value()) << j.key;
        exhaustive.emplace(j.key, *out.single);
    }
    ASSERT_EQ(exhaustive.size(), 38u);

    for (const std::string fam : {"SPDP-NB:", "SPDP-B:"}) {
        uint64_t best_exhaustive = UINT64_MAX;
        for (const auto &kv : exhaustive)
            if (kv.first.rfind(prefix + fam, 0) == 0)
                best_exhaustive =
                    std::min(best_exhaustive, kv.second.llcMisses);
        uint64_t best_pruned = UINT64_MAX;
        size_t pruned_cells = 0;
        for (const runner::KeyedOutcome &keyed : outcomes) {
            if (keyed.key.rfind(prefix + fam, 0) != 0 ||
                !keyed.outcome.single)
                continue;
            ++pruned_cells;
            best_pruned =
                std::min(best_pruned, keyed.outcome.single->llcMisses);
        }
        EXPECT_GE(pruned_cells, 3u) << fam; // top-3 (+ maybe the audit)
        EXPECT_LE(pruned_cells, 4u) << fam;
        ASSERT_NE(best_exhaustive, UINT64_MAX) << fam;
        ASSERT_NE(best_pruned, UINT64_MAX) << fam;
        // Winner reproduction bar: the pruned set must contain a cell
        // within 2% of the exhaustive optimum (the same tolerance the
        // hotpath job enforces; near-tied neighbours flip at sub-scale).
        EXPECT_LE(best_pruned, best_exhaustive + best_exhaustive / 50)
            << fam;
    }
}
