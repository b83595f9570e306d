/**
 * @file
 * Helpers that more than one suite family shares: the single-core cell
 * runner, the suites' telemetry knobs, the multi-core config scaler,
 * the static-PD grid's best point and the explore planner.  Internal
 * to src/runner.
 */

#ifndef PDP_RUNNER_SUITE_HELPERS_H
#define PDP_RUNNER_SUITE_HELPERS_H

#include <cstdint>
#include <string>
#include <vector>

#include "runner/suites.h"
#include "sim/lockstep_sweep.h"
#include "telemetry/epoch_sampler.h"
#include "trace/rdd_fingerprint.h"

namespace pdp
{
namespace runner
{

/** The per-run telemetry knobs a suite's options ask for. */
telemetry::TelemetryConfig telemetryConfig(const SuiteOptions &options);

/** The outcomes of `cells`, single-core cells over one benchmark and
 *  config, from one lockstep sweep seeded with ctx.seed: each cell's
 *  SimResult and its probe's metrics, in cell order. */
std::vector<JobOutcome> runCells(const std::vector<SingleCoreCell> &cells,
                                 const JobContext &ctx);

/** The `cores`-core config at options.scale; like scaledConfig, it
 *  refuses a scale that leaves a thread no measured access. */
MultiCoreConfig scaledMultiCoreConfig(const SuiteOptions &options,
                                      unsigned cores);

/** Miss-minimizing point of an already-run static-PD grid, picked by
 *  pdp::fewestMisses as pdp::bestStaticPd picks its own. */
struct GridBest
{
    uint32_t pd = 0;
    const SimResult *result = nullptr;
};

GridBest bestOverPdGrid(const RecordLookup &records,
                        const std::string &prefix);

/** SPDP-B (`bypass`) or SPDP-NB at static PD `pd`. */
PolicyFactory spdpPolicy(bool bypass, uint32_t pd);

/** Contenders per SPDP family that the pruned explorer simulates, in
 *  `explore --explore` and in the hotpath suite's explore job. */
constexpr unsigned kExploreTopK = 3;

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
ExplorePlan planExplore(const RddFingerprint &fp, unsigned top_k,
                        uint64_t audit_seed);

} // namespace runner
} // namespace pdp

#endif // PDP_RUNNER_SUITE_HELPERS_H
