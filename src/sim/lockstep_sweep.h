/**
 * @file
 * Multi-config lockstep sweeps: N policy configs over ONE trace decode.
 *
 * The figure suites are sweep-shaped — the same benchmark simulated
 * under dozens of policy configs (the Fig. 4/Fig. 10 static-PD grids),
 * every config re-decoding the identical trace and re-walking the
 * identical L2.  Since the L2 is policy-independent (llc_stream.h), the
 * lockstep driver decodes and L2-filters once per chunk and replays the
 * captured LLC op stream against N per-config LLC caches side by side,
 * amortizing the front-end across the whole sweep.  Each config's LLC
 * sees the full op stream in order, so this is *exact for every policy*:
 * the returned SimResults are byte-identical to N independent
 * sequential runs, which the byte-identity tests pin down.
 *
 * On top of the amortization, the per-chunk config walks are
 * independent (each config's Cache, policy, level buffer and timing
 * model are private), so they fan out across `threads` workers with a
 * join barrier per chunk.
 */

#ifndef PDP_SIM_LOCKSTEP_SWEEP_H
#define PDP_SIM_LOCKSTEP_SWEEP_H

#include <functional>
#include <memory>
#include <vector>

#include "policies/replacement_policy.h"
#include "sim/single_core_sim.h"
#include "trace/generator.h"

namespace pdp
{

/** Builds one LLC policy instance per call (one per lane or job). */
using PolicyFactory = std::function<std::unique_ptr<ReplacementPolicy>()>;

/** Whether `config` observes the global access order (telemetry, audit
 *  or a prefetcher), which keeps it on the sequential runSingleCore. */
inline bool
observesGlobalOrder(const SimConfig &config)
{
    return config.telemetry.enabled || config.auditEvery != 0 ||
        config.withPrefetcher;
}

/**
 * Simulate every policy in `makePolicies` over one decode of `gen`,
 * returning one SimResult per factory, in input order.  `threads` caps
 * the per-chunk worker fan-out over configs (0 or 1 = inline).
 * Configs that observesGlobalOrder() throw CheckFailure.  A lane's
 * exception is rethrown after every worker joins — the lowest-numbered
 * failing lane's, so the error is the same at any thread count.
 */
std::vector<SimResult>
runSingleCoreLockstep(AccessGenerator &gen, const SimConfig &config,
                      const std::vector<PolicyFactory> &makePolicies,
                      unsigned threads = 1);

} // namespace pdp

#endif // PDP_SIM_LOCKSTEP_SWEEP_H
