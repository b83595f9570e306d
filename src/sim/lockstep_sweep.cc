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

/** One sweep config's private simulation state: LLC + policy, its own
 *  per-access level buffer and (in the measured phase) timing model.
 *  A lane is only ever touched by one worker at a time; the per-chunk
 *  join barrier orders chunk N's walk before chunk N+1's. */
struct Lane
{
    std::unique_ptr<Cache> llc;
    std::unique_ptr<TimingModel> timing;
    std::vector<uint8_t> levels;
};

/** Walk one chunk through one lane: replay the LLC ops (stamping each
 *  demand op's level into the lane's slots), then (measured phase)
 *  replay timing.  Lanes only diverge at demand-op slots — the L2-hit
 *  runs between them are lane-invariant, so each run is folded into
 *  one O(1) onL2Hits call via the front-end's precomputed segments
 *  instead of walking every access per lane. */
void
walkLane(Lane &lane, const std::vector<detail::LlcOp> &ops,
         const std::vector<detail::TimingSegment> &segments,
         const detail::TimingSegment &tail, const uint32_t *gaps)
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
    if (!lane.timing)
        return;
    size_t seg = 0;
    for (const detail::LlcOp &op : ops) {
        if (op.accessIdx < 0)
            continue;
        const detail::TimingSegment &run = segments[seg++];
        lane.timing->onL2Hits(run.gapSum, run.count);
        lane.timing->onAccess(
            gaps[op.accessIdx],
            detail::toHitLevel(lane.levels[op.accessIdx]));
    }
    lane.timing->onL2Hits(tail.gapSum, tail.count);
}

void
runPhase(AccessGenerator &gen, detail::LlcStreamFrontEnd &frontEnd,
         std::vector<Lane> &lanes, uint64_t total, unsigned threads)
{
    const unsigned fanOut = std::min<unsigned>(
        std::max(1u, threads), static_cast<unsigned>(lanes.size()));
    // Per-lane slots, read after the join: nothing escapes a worker.
    std::vector<std::exception_ptr> errors(lanes.size());
    uint64_t remaining = total;
    while (remaining > 0) {
        const size_t n = frontEnd.fill(gen, remaining);
        if (n == 0)
            break;
        remaining -= n;

        const auto &ops = frontEnd.ops();
        const auto &segments = frontEnd.segments();
        const detail::TimingSegment tail = frontEnd.tailSegment();
        const uint32_t *gaps = frontEnd.gaps().data();

        // Worker w owns lanes w, w+fanOut, w+2*fanOut, ... — a static
        // partition, so no two workers ever touch the same lane.  Its
        // lanes after a failing one cannot hold the lowest failure.
        auto walkSlice = [&](unsigned w) {
            for (size_t c = w; c < lanes.size(); c += fanOut) {
                try {
                    walkLane(lanes[c], ops, segments, tail, gaps);
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

std::vector<SimResult>
runSingleCoreLockstep(AccessGenerator &gen, const SimConfig &config,
                      const std::vector<PolicyFactory> &makePolicies,
                      unsigned threads)
{
    PDP_CHECK(!observesGlobalOrder(config),
              "lockstep sweeps observe no global order: run telemetry/"
              "audit/prefetcher configs on the sequential driver");
    if (makePolicies.empty())
        return {};

    detail::LlcStreamFrontEnd frontEnd(config.hierarchy);

    std::vector<Lane> lanes(makePolicies.size());
    for (size_t c = 0; c < lanes.size(); ++c) {
        auto policy = makePolicies[c]();
        PDP_CHECK(policy != nullptr, "policy factory returned null");
        lanes[c].llc = std::make_unique<Cache>(config.hierarchy.llc,
                                               std::move(policy));
        lanes[c].levels.resize(detail::kStreamChunk);
    }

    runPhase(gen, frontEnd, lanes, config.warmup, threads);
    frontEnd.resetL2Stats();
    for (Lane &lane : lanes) {
        lane.llc->resetStats();
        lane.timing = std::make_unique<TimingModel>(config.timing);
    }

    runPhase(gen, frontEnd, lanes, config.accesses, threads);

    std::vector<SimResult> results;
    results.reserve(lanes.size());
    for (const Lane &lane : lanes)
        results.push_back(makeSimResult(gen.name(),
                                        lane.llc->policy().name(),
                                        lane.llc->stats(), *lane.timing));
    return results;
}

} // namespace pdp
