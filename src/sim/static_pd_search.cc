#include "sim/static_pd_search.h"

#include <thread>

#include "core/pdp_policy.h"
#include "sim/lockstep_sweep.h"
#include "trace/spec_suite.h"

namespace pdp
{

std::vector<uint32_t>
defaultPdGrid()
{
    return {16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 128,
            144, 160, 192, 224, 256};
}

size_t
fewestMisses(const std::vector<const SimResult *> &results)
{
    size_t best = results.size();
    for (size_t i = 0; i < results.size(); ++i)
        if (results[i] && (best == results.size() ||
                           results[i]->llcMisses < results[best]->llcMisses))
            best = i;
    return best;
}

StaticPdResult
bestStaticPd(const std::string &benchmark, bool bypass,
             const SimConfig &config, std::vector<uint32_t> grid)
{
    if (grid.empty())
        grid = defaultPdGrid();

    std::vector<PolicyFactory> factories;
    for (uint32_t pd : grid)
        factories.push_back([pd, bypass] {
            return bypass ? makeSpdpB(pd) : makeSpdpNb(pd);
        });
    auto gen = SpecSuite::make(benchmark);
    std::vector<SimResult> results = runSingleCoreLockstep(
        *gen, config, factories, std::thread::hardware_concurrency());

    std::vector<const SimResult *> candidates;
    for (const SimResult &r : results)
        candidates.push_back(&r);
    StaticPdResult out;
    out.bestPd = grid[fewestMisses(candidates)];
    for (size_t i = 0; i < grid.size(); ++i)
        out.sweep.emplace_back(grid[i], std::move(results[i]));
    return out;
}

} // namespace pdp
