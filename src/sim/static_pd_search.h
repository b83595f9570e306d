/**
 * @file
 * Exhaustive-ish search for the best static protecting distance of a
 * benchmark (the "SPDP with the best PD" of Figs. 4 and 10 and the
 * optimal-PD distribution of Table 2).
 */

#ifndef PDP_SIM_STATIC_PD_SEARCH_H
#define PDP_SIM_STATIC_PD_SEARCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/single_core_sim.h"

namespace pdp
{

/** Outcome of a static-PD sweep. */
struct StaticPdResult
{
    uint32_t bestPd = 0;
    /** Full sweep, one entry per grid point. */
    std::vector<std::pair<uint32_t, SimResult>> sweep;
};

/** The default PD grid (16 = associativity up to d_max = 256). */
std::vector<uint32_t> defaultPdGrid();

/** Index of the result with the fewest LLC misses, ties to the earliest;
 *  nulls are skipped (results.size() when every entry is null). */
size_t fewestMisses(const std::vector<const SimResult *> &results);

/**
 * Sweep static PDs for one benchmark's default-seeded stream with
 * runSingleCoreLockstep (one decode, lanes over every hardware thread)
 * and return the fewestMisses() one.
 *
 * @param benchmark suite benchmark name
 * @param bypass true for SPDP-B, false for SPDP-NB
 * @param config run configuration
 * @param grid PD candidates (defaultPdGrid() if empty)
 */
StaticPdResult bestStaticPd(const std::string &benchmark, bool bypass,
                            const SimConfig &config,
                            std::vector<uint32_t> grid = {});

} // namespace pdp

#endif // PDP_SIM_STATIC_PD_SEARCH_H
