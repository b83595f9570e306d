/**
 * @file
 * Multi-config lockstep sweeps: N policy configs over ONE trace decode.
 *
 * The figure suites are sweep-shaped — the same benchmark (or the same
 * multi-core mix) simulated under several policy configs (the Fig. 4/
 * Fig. 10 static-PD grids, Fig. 12's five shared-cache policies), every
 * config re-decoding the identical traces and re-walking the identical
 * L2s.  Since the L2s are policy-independent (llc_stream.h), the
 * lockstep driver decodes and L2-filters once per chunk and replays the
 * captured LLC op stream against N per-config LLC caches side by side,
 * amortizing the front-end across the whole sweep.  Each config's LLC
 * sees the full op stream in order, so this is *exact for every policy*:
 * the returned results are byte-identical to N independent sequential
 * runs, which the byte-identity tests pin down.
 *
 * Observed configs ride the lanes too: each lane carries its own
 * RunObservers (invariant auditor and epoch sampler) and ticks its
 * sampler after the last op of each measured access, where
 * runRoundRobin ticks, and the stream prefetcher lives in the shared
 * front-end (llc_stream.h).
 *
 * On top of the amortization, the per-chunk config walks are
 * independent (each config's Cache, policy, observers, level buffer and
 * timing models are private), so they fan out across `threads` workers
 * with a join barrier per chunk.
 */

#ifndef PDP_SIM_LOCKSTEP_SWEEP_H
#define PDP_SIM_LOCKSTEP_SWEEP_H

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "policies/replacement_policy.h"
#include "sim/single_core_sim.h"
#include "trace/generator.h"

namespace pdp
{

/** Builds one LLC policy instance per call (one per lane or job). */
using PolicyFactory = std::function<std::unique_ptr<ReplacementPolicy>()>;

/** One sweep config's private state: LLC + policy, the run's observers
 *  (built before warmup, as runRoundRobin builds them), the chunk's
 *  level slots and (measured phase) one timing model per generator.
 *  Only one worker at a time touches a lane; a join barrier ends each
 *  chunk. */
struct LockstepLane
{
    std::unique_ptr<Cache> llc;
    RunObservers observers;
    std::vector<TimingModel> timers;
    std::vector<uint8_t> levels;
};

/**
 * The lane engine, runRoundRobin's lockstep form: one front-end serves
 * `gens` round-robin and each chunk replays against one lane per
 * factory, in input order.  `threads` caps the per-chunk worker fan-out
 * over lanes (0 or 1 = inline).  The caller finish()es each lane's
 * observers into its result.  A lane's exception is rethrown after
 * every worker joins — the lowest-numbered failing lane's, so the error
 * is the same at any thread count.
 */
std::vector<LockstepLane>
runLockstepLanes(std::span<AccessGenerator *const> gens,
                 const SimConfig &config,
                 const std::vector<PolicyFactory> &makePolicies,
                 unsigned threads);

/** One SimResult per factory, each as runSingleCore would give it over
 *  gen's stream from where it stands: one runLockstepLanes decode. */
std::vector<SimResult>
runSingleCoreLockstep(AccessGenerator &gen, const SimConfig &config,
                      const std::vector<PolicyFactory> &makePolicies,
                      unsigned threads = 1);

} // namespace pdp

#endif // PDP_SIM_LOCKSTEP_SWEEP_H
