/**
 * @file
 * Front-end of the lockstep sweep driver: the sequential generators and
 * L2 walk (PrivateL2s, cache/hierarchy.h), captured chunk by chunk as a
 * replayable LLC op stream.
 *
 * The load-bearing observation (DESIGN.md "Lockstep sweeps"): the LLC's
 * input stream is fully determined by the generators and the L2 walk —
 * the L2s are always plain LRU, the stream prefetcher trains on the L2
 * stream, and round-robin brings every generator to its budget in the
 * same round, so nothing the LLC decides ever feeds back into which ops
 * reach it.  That lets one sequential front-end decode the traces and
 * fill the L2s once, record the LLC ops the walk emits (demand
 * accesses, dirty-L2-victim writebacks and prefetch fills, in hierarchy
 * order) into a bounded chunk buffer, and hand the chunk to the
 * lockstep sweep, which replays it against N per-config LLCs
 * (lockstep_sweep.cc).  The one op a lane may skip is a prefetch fill
 * of a line its LLC already holds, as Hierarchy::access skips it.
 *
 * Timing replays from the same buffers: each lane's LLC walk stamps
 * hit/miss into its own level slots for demand ops, and each thread's
 * runs of L2 hits between its demand ops come folded into
 * TimingSegments, so every lane feeds each thread's TimingModel the
 * exact per-access sequence the sequential driver would have.
 */

#ifndef PDP_SIM_LLC_STREAM_H
#define PDP_SIM_LLC_STREAM_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cache/hierarchy.h"
#include "cache/shard_view.h"
#include "trace/generator.h"

namespace pdp
{
namespace detail
{

/** Per-access hierarchy level, stored as a byte in a lane's level
 *  slots (kLevelLlc/kLevelMemory are written by the LLC walk). */
constexpr uint8_t kLevelL2 = 0;
constexpr uint8_t kLevelLlc = 1;
constexpr uint8_t kLevelMemory = 2;

inline HitLevel
toHitLevel(uint8_t level)
{
    return level == kLevelL2 ? HitLevel::L2
        : level == kLevelLlc ? HitLevel::Llc
                             : HitLevel::Memory;
}

/** One captured LLC access (demand, L2-victim writeback or prefetch
 *  fill). */
struct LlcOp
{
    uint64_t lineAddr = 0;
    uint64_t pc = 0;
    /** Chunk-local index of the demand access this op answers; -1 for
     *  writebacks and prefetch fills (which have no timing-level
     *  slot). */
    int32_t accessIdx = -1;
    /** LLC set index of lineAddr. */
    uint32_t set = 0;
    /** Chunk-local index of the access whose walk emitted this op (an
     *  L2-hit access can emit prefetch fills). */
    uint32_t sourceIdx = 0;
    uint8_t threadId = 0;
    bool isWrite = false;
    bool isWriteback = false;
    bool isPrefetch = false;
};
static_assert(sizeof(LlcOp) == 32, "an LlcOp is half a cache line");

/** Accesses captured per chunk.  Big enough to amortize the per-chunk
 *  lane fan-out, small enough that the chunk's gap/level/op arrays
 *  stay resident in the host's caches. */
constexpr size_t kStreamChunk = size_t{1} << 15;

/** One thread's run of consecutive L2 hits preceding its next demand
 *  op: summed instruction gaps plus the hit count.  L2 hits are
 *  lane-invariant (every sweep config sees the same L2s), so per-lane
 *  timing replay folds each run into one TimingModel::onL2Hits call
 *  instead of walking every access — O(LLC ops) per lane, not
 *  O(accesses). */
struct TimingSegment
{
    uint64_t gapSum = 0;
    uint32_t count = 0;
    /** Round-robin position of the thread's generator. */
    uint32_t thread = 0;
};

/**
 * The sequential front-end: generators + the L2 walk, emitting chunk
 * buffers of LLC ops.  Owns all mutable front-end state; the consumer
 * owns the LLC(s).
 */
class LlcStreamFrontEnd
{
  public:
    /** The ShardPlan argument is always the one-shard plan; it stays
     *  only for perfbench/'s call (cache/shard_view.h). */
    explicit LlcStreamFrontEnd(const HierarchyConfig &config,
                               const ShardPlan & = ShardPlan{})
        : l2s_(config)
    {
        gaps_.resize(kStreamChunk);
        // Two ops per access (demand + dirty L2 victim) without a
        // prefetcher; prefetch fills grow the buffer past that.
        ops_.reserve(2 * kStreamChunk);
        segments_.reserve(kStreamChunk);
        tails_.resize(config.numThreads);
    }

    /** Train a stream prefetcher on the L2 stream (Sec. 6.5). */
    void
    attachPrefetcher(std::unique_ptr<StreamPrefetcher> prefetcher)
    {
        l2s_.attachPrefetcher(std::move(prefetcher));
    }

    /** fill's one-generator case. */
    size_t
    fill(AccessGenerator &gen, uint64_t budget)
    {
        AccessGenerator *gens[] = {&gen};
        return fill(gens, budget);
    }

    /**
     * Decode and L2-filter the next min(rounds, kStreamChunk /
     * gens.size()) rounds, a round being one access of every generator
     * in order, into the chunk buffers; returns how many were consumed.
     */
    size_t
    fill(std::span<AccessGenerator *const> gens, uint64_t rounds)
    {
        const uint32_t threads = static_cast<uint32_t>(gens.size());
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(rounds, kStreamChunk / threads));
        ops_.clear();
        segments_.clear();
        // tails_[t] is thread t's open run of L2 hits.
        tails_.resize(threads);
        for (uint32_t t = 0; t < threads; ++t)
            tails_[t] = TimingSegment{0, 0, t};
        uint32_t t = 0;
        for (size_t i = 0; i < n * threads;
             ++i, t = t + 1 == threads ? 0 : t + 1) {
            const Access access = gens[t]->next();
            gaps_[i] = access.instrGap;
            const bool l2Hit =
                l2s_.walk(access, [&](const AccessContext &ctx) {
                    LlcOp op;
                    op.lineAddr = ctx.lineAddr;
                    op.pc = ctx.pc;
                    if (!ctx.isWriteback && !ctx.isPrefetch)
                        op.accessIdx = static_cast<int32_t>(i);
                    op.set = ctx.set;
                    op.sourceIdx = static_cast<uint32_t>(i);
                    op.threadId = ctx.threadId;
                    op.isWrite = ctx.isWrite;
                    op.isWriteback = ctx.isWriteback;
                    op.isPrefetch = ctx.isPrefetch;
                    ops_.push_back(op);
                });
            TimingSegment &run = tails_[t];
            if (l2Hit) {
                run.gapSum += gaps_[i];
                ++run.count;
                continue;
            }
            // The demand op's own gap is replayed through onAccess; its
            // thread's run of L2 hits before it is its timing segment.
            segments_.push_back(run);
            run = TimingSegment{0, 0, t};
        }
        return n;
    }

    const std::vector<uint32_t> &gaps() const { return gaps_; }
    const std::vector<LlcOp> &ops() const { return ops_; }

    /** One TimingSegment per demand op, in op order. */
    const std::vector<TimingSegment> &segments() const { return segments_; }
    /** Generator 0's L2 hits after its last demand op in the chunk. */
    const TimingSegment &tailSegment() const { return tails_[0]; }
    /** Every generator's tail, by round-robin position. */
    const std::vector<TimingSegment> &tailSegments() const { return tails_; }

    void resetL2Stats() { l2s_.resetStats(); }

  private:
    PrivateL2s l2s_;
    std::vector<uint32_t> gaps_;
    std::vector<LlcOp> ops_;
    std::vector<TimingSegment> segments_;
    std::vector<TimingSegment> tails_;
};

} // namespace detail
} // namespace pdp

#endif // PDP_SIM_LLC_STREAM_H
