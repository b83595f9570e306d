#include "sim/lockstep_sweep.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <thread>

#include "check/check.h"
#include "sim/llc_stream.h"

namespace pdp
{

namespace
{

/** Walk one chunk of `accesses` accesses through one lane: replay the
 *  LLC ops (stamping each demand op's level into the lane's slots and
 *  calling tick() once per access after that access's last op), then
 *  (measured phase) replay timing.  Lanes only diverge at demand-op
 *  slots — each thread's L2-hit runs between them are lane-invariant,
 *  so each run is folded into one O(1) onL2Hits call via the
 *  front-end's precomputed segments instead of walking every access per
 *  lane.  The tick is a template argument, so an unobserved lane's loop
 *  carries no per-access work. */
template <typename Tick>
void
walkLane(LockstepLane &lane, const detail::LlcStreamFrontEnd &chunk,
         size_t accesses, Tick tick)
{
    const uint32_t *gaps = chunk.gaps().data();
    AccessContext ctx;
    uint32_t ticked = 0;
    for (const detail::LlcOp &op : chunk.ops()) {
        for (; ticked < op.sourceIdx; ++ticked)
            tick();
        if (op.isPrefetch && lane.llc->contains(op.lineAddr))
            continue;
        ctx.lineAddr = op.lineAddr;
        ctx.pc = op.pc;
        ctx.set = op.set;
        ctx.threadId = op.threadId;
        ctx.isWrite = op.isWrite;
        ctx.isWriteback = op.isWriteback;
        ctx.isPrefetch = op.isPrefetch;
        const AccessOutcome out = lane.llc->access(ctx);
        if (op.accessIdx >= 0)
            lane.levels[op.accessIdx] =
                out.hit ? detail::kLevelLlc : detail::kLevelMemory;
    }
    for (; ticked < accesses; ++ticked)
        tick();
    if (lane.timers.empty())
        return;
    size_t seg = 0;
    for (const detail::LlcOp &op : chunk.ops()) {
        if (op.accessIdx < 0)
            continue;
        const detail::TimingSegment &run = chunk.segments()[seg++];
        TimingModel &timing = lane.timers[run.thread];
        timing.onL2Hits(run.gapSum, run.count);
        timing.onAccess(gaps[op.accessIdx],
                        detail::toHitLevel(lane.levels[op.accessIdx]));
    }
    for (const detail::TimingSegment &tail : chunk.tailSegments())
        lane.timers[tail.thread].onL2Hits(tail.gapSum, tail.count);
}

/** `rounds` rounds of `gens` through every lane, each lane's phase
 *  timed under `phase`; the measured phase ticks each lane's sampler. */
void
runPhase(std::span<AccessGenerator *const> gens,
         detail::LlcStreamFrontEnd &frontEnd,
         std::vector<LockstepLane> &lanes, uint64_t rounds, bool measured,
         const char *phase, unsigned threads)
{
    const unsigned fanOut = std::min<unsigned>(
        std::max(1u, threads), static_cast<unsigned>(lanes.size()));
    std::deque<telemetry::ScopedPhaseTimer> phaseTimers;
    for (LockstepLane &lane : lanes)
        phaseTimers.emplace_back(lane.observers.trace(), phase);
    // Per-lane slots, read after the join: nothing escapes a worker.
    std::vector<std::exception_ptr> errors(lanes.size());
    uint64_t remaining = rounds;
    while (remaining > 0) {
        const size_t n = frontEnd.fill(gens, remaining);
        if (n == 0)
            break;
        remaining -= n;
        const size_t accesses = n * gens.size();

        // Worker w owns lanes w, w+fanOut, w+2*fanOut, ... — a static
        // partition, so no two workers ever touch the same lane.  Its
        // lanes after a failing one cannot hold the lowest failure.
        auto walkSlice = [&](unsigned w) {
            for (size_t c = w; c < lanes.size(); c += fanOut) {
                LockstepLane &lane = lanes[c];
                try {
                    if (telemetry::EpochSampler *sampler =
                            measured ? lane.observers.sampler() : nullptr)
                        walkLane(lane, frontEnd, accesses,
                                 [sampler] { sampler->onAccess(); });
                    else
                        walkLane(lane, frontEnd, accesses, [] {});
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
    PDP_CHECK(!gens.empty(), "lockstep run with no generator");
    if (makePolicies.empty())
        return {};

    detail::LlcStreamFrontEnd frontEnd(config.hierarchy);
    if (config.withPrefetcher)
        frontEnd.attachPrefetcher(std::make_unique<StreamPrefetcher>());

    std::vector<LockstepLane> lanes;
    lanes.reserve(makePolicies.size());
    for (const PolicyFactory &makePolicy : makePolicies) {
        auto policy = makePolicy();
        PDP_CHECK(policy != nullptr, "policy factory returned null");
        auto llc = std::make_unique<Cache>(config.hierarchy.llc,
                                           std::move(policy));
        RunObservers observers(*llc, config.auditEvery, config.telemetry,
                               config.accesses * gens.size(),
                               config.hierarchy.numThreads);
        lanes.push_back({std::move(llc), std::move(observers), {},
                         std::vector<uint8_t>(detail::kStreamChunk)});
    }

    runPhase(gens, frontEnd, lanes, config.warmup, false, "warmup",
             threads);
    frontEnd.resetL2Stats();
    for (LockstepLane &lane : lanes) {
        lane.llc->resetStats();
        lane.observers.beginMeasurement();
        lane.timers.assign(gens.size(), TimingModel(config.timing));
    }

    runPhase(gens, frontEnd, lanes, config.accesses, true, "measure",
             threads);
    return lanes;
}

std::vector<SimResult>
runSingleCoreLockstep(AccessGenerator &gen, const SimConfig &config,
                      const std::vector<PolicyFactory> &makePolicies,
                      unsigned threads)
{
    AccessGenerator *gens[] = {&gen};
    std::vector<SimResult> results;
    for (LockstepLane &lane :
         runLockstepLanes(gens, config, makePolicies, threads)) {
        SimResult &result = results.emplace_back(
            makeSimResult(gen.name(), lane.llc->policy().name(),
                          lane.llc->stats(), lane.timers[0]));
        lane.observers.finish(result);
    }
    return results;
}

} // namespace pdp
