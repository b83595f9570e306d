#include "sim/lockstep_sweep.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "check/check.h"
#include "sim/llc_stream.h"

namespace pdp
{

namespace
{

/** Walk one chunk through one lane: replay the LLC ops (stamping each
 *  demand op's level into the lane's slots), then (measured phase)
 *  replay timing.  Lanes only diverge at demand-op slots — each
 *  thread's L2-hit runs between them are lane-invariant, so each run is
 *  folded into one O(1) onL2Hits call via the front-end's precomputed
 *  segments instead of walking every access per lane. */
void
walkLane(LockstepLane &lane, const std::vector<detail::LlcOp> &ops,
         const std::vector<detail::TimingSegment> &segments,
         const std::vector<detail::TimingSegment> &tails,
         const uint32_t *gaps)
{
    AccessContext ctx;
    for (const detail::LlcOp &op : ops) {
        ctx.lineAddr = op.lineAddr;
        ctx.pc = op.pc;
        ctx.set = op.set;
        ctx.threadId = op.threadId;
        ctx.isWrite = op.isWrite;
        ctx.isWriteback = op.isWriteback;
        const AccessOutcome out = lane.llc->access(ctx);
        if (op.accessIdx >= 0)
            lane.levels[op.accessIdx] =
                out.hit ? detail::kLevelLlc : detail::kLevelMemory;
    }
    if (lane.timers.empty())
        return;
    size_t seg = 0;
    for (const detail::LlcOp &op : ops) {
        if (op.accessIdx < 0)
            continue;
        const detail::TimingSegment &run = segments[seg++];
        TimingModel &timing = lane.timers[run.thread];
        timing.onL2Hits(run.gapSum, run.count);
        timing.onAccess(gaps[op.accessIdx],
                        detail::toHitLevel(lane.levels[op.accessIdx]));
    }
    for (const detail::TimingSegment &tail : tails)
        lane.timers[tail.thread].onL2Hits(tail.gapSum, tail.count);
}

void
runPhase(std::span<AccessGenerator *const> gens,
         detail::LlcStreamFrontEnd &frontEnd,
         std::vector<LockstepLane> &lanes, uint64_t rounds,
         unsigned threads)
{
    const unsigned fanOut = std::min<unsigned>(
        std::max(1u, threads), static_cast<unsigned>(lanes.size()));
    // Per-lane slots, read after the join: nothing escapes a worker.
    std::vector<std::exception_ptr> errors(lanes.size());
    uint64_t remaining = rounds;
    while (remaining > 0) {
        const size_t n = frontEnd.fill(gens, remaining);
        if (n == 0)
            break;
        remaining -= n;

        const auto &ops = frontEnd.ops();
        const auto &segments = frontEnd.segments();
        const auto &tails = frontEnd.tailSegments();
        const uint32_t *gaps = frontEnd.gaps().data();

        // Worker w owns lanes w, w+fanOut, w+2*fanOut, ... — a static
        // partition, so no two workers ever touch the same lane.  Its
        // lanes after a failing one cannot hold the lowest failure.
        auto walkSlice = [&](unsigned w) {
            for (size_t c = w; c < lanes.size(); c += fanOut) {
                try {
                    walkLane(lanes[c], ops, segments, tails, gaps);
                } catch (...) {
                    errors[c] = std::current_exception();
                    return;
                }
            }
        };
        std::vector<std::jthread> workers; // joined on every exit
        for (unsigned w = 1; w < fanOut; ++w)
            workers.emplace_back(walkSlice, w);
        walkSlice(0);
        workers.clear();
        for (const std::exception_ptr &error : errors)
            if (error)
                std::rethrow_exception(error);
    }
}

} // namespace

std::vector<LockstepLane>
runLockstepLanes(std::span<AccessGenerator *const> gens,
                 const SimConfig &config,
                 const std::vector<PolicyFactory> &makePolicies,
                 unsigned threads)
{
    PDP_CHECK(!observesGlobalOrder(config),
              "lockstep sweeps observe no global order: run telemetry/"
              "audit/prefetcher configs on the sequential driver");
    PDP_CHECK(!gens.empty(), "lockstep run with no generator");
    if (makePolicies.empty())
        return {};

    detail::LlcStreamFrontEnd frontEnd(config.hierarchy);

    std::vector<LockstepLane> lanes(makePolicies.size());
    for (size_t c = 0; c < lanes.size(); ++c) {
        auto policy = makePolicies[c]();
        PDP_CHECK(policy != nullptr, "policy factory returned null");
        lanes[c].llc = std::make_unique<Cache>(config.hierarchy.llc,
                                               std::move(policy));
        lanes[c].levels.resize(detail::kStreamChunk);
    }

    runPhase(gens, frontEnd, lanes, config.warmup, threads);
    frontEnd.resetL2Stats();
    for (LockstepLane &lane : lanes) {
        lane.llc->resetStats();
        lane.timers.assign(gens.size(), TimingModel(config.timing));
    }

    runPhase(gens, frontEnd, lanes, config.accesses, threads);
    return lanes;
}

std::vector<SimResult>
runSingleCoreLockstep(AccessGenerator &gen, const SimConfig &config,
                      const std::vector<PolicyFactory> &makePolicies,
                      unsigned threads)
{
    std::vector<SimResult> results;
    if (observesGlobalOrder(config)) {
        // An observer records one run's access order, so each policy
        // runs alone.
        for (const PolicyFactory &makePolicy : makePolicies) {
            gen.reset();
            Hierarchy hierarchy = makeHierarchy(config, makePolicy());
            results.push_back(runSingleCore(gen, hierarchy, config));
        }
        return results;
    }
    AccessGenerator *gens[] = {&gen};
    for (const LockstepLane &lane :
         runLockstepLanes(gens, config, makePolicies, threads))
        results.push_back(makeSimResult(gen.name(),
                                        lane.llc->policy().name(),
                                        lane.llc->stats(), lane.timers[0]));
    return results;
}

} // namespace pdp
