/**
 * @file
 * Front-end of the lockstep sweep driver: the sequential generator + L2
 * walk, captured chunk by chunk as a replayable LLC op stream.
 *
 * The load-bearing observation (DESIGN.md "Lockstep sweeps"): with no
 * prefetcher attached, the LLC's input stream is fully determined by
 * the generator and the L2 walk — the L2 is always plain LRU, so
 * nothing the LLC decides ever feeds back into which ops reach it.
 * That lets one sequential front-end decode the trace and fill the L2
 * once, emit the LLC ops (demand accesses plus dirty-L2-victim
 * writebacks, in hierarchy order) into a bounded chunk buffer, and hand
 * the chunk to the lockstep sweep, which replays it against N
 * per-config LLCs (lockstep_sweep.cc).
 *
 * Timing replays from the same buffers: each lane's LLC walk stamps
 * hit/miss into its own level slots for demand ops, and the runs of L2
 * hits between demand ops come folded into TimingSegments, so every
 * lane feeds TimingModel the exact per-access sequence the sequential
 * driver would have.
 */

#ifndef PDP_SIM_LLC_STREAM_H
#define PDP_SIM_LLC_STREAM_H

#include <algorithm>
#include <cstdint>
#include <memory>
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

/** One captured LLC access (demand or L2-victim writeback). */
struct LlcOp
{
    uint64_t lineAddr = 0;
    uint64_t pc = 0;
    /** Chunk-local index of the demand access this op answers; -1 for
     *  writebacks (which have no timing-level slot). */
    int32_t accessIdx = -1;
    /** LLC set index of lineAddr. */
    uint32_t set = 0;
    uint8_t threadId = 0;
    bool isWrite = false;
    bool isWriteback = false;
};

/** Accesses captured per chunk.  Big enough to amortize the per-chunk
 *  lane fan-out, small enough that the chunk's gap/level/op arrays
 *  stay resident in the host's caches. */
constexpr size_t kStreamChunk = size_t{1} << 15;

/** One run of consecutive L2 hits preceding a demand op: summed
 *  instruction gaps plus the hit count.  L2 hits are lane-invariant
 *  (every sweep config sees the same L2), so per-lane timing replay
 *  folds each run into one TimingModel::onL2Hits call instead of
 *  walking every access — O(LLC ops) per lane, not O(accesses). */
struct TimingSegment
{
    uint64_t gapSum = 0;
    uint32_t count = 0;
};

/**
 * The sequential front-end: generator + per-thread L2s, emitting chunk
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
        : setMask_(config.llc.numSets() - 1)
    {
        for (unsigned t = 0; t < config.numThreads; ++t) {
            CacheConfig l2cfg = config.l2;
            l2cfg.label = "L2." + std::to_string(t);
            l2s_.push_back(std::make_unique<Cache>(
                l2cfg, std::make_unique<LruPolicy>()));
        }
        gaps_.resize(kStreamChunk);
        // Worst case two ops per access (demand + dirty L2 victim).
        ops_.reserve(2 * kStreamChunk);
        segments_.reserve(kStreamChunk);
    }

    /**
     * Decode and L2-filter the next min(budget, kStreamChunk) accesses
     * into the chunk buffers; returns how many were consumed.
     */
    size_t
    fill(AccessGenerator &gen, uint64_t budget)
    {
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(budget, kStreamChunk));
        ops_.clear();
        segments_.clear();
        TimingSegment run;
        AccessContext ctx;
        for (size_t i = 0; i < n; ++i) {
            const Access access = gen.next();
            gaps_[i] = access.instrGap;

            Cache &l2 = *l2s_[access.threadId < l2s_.size()
                                  ? access.threadId
                                  : 0];
            ctx.lineAddr = access.lineAddr;
            ctx.pc = access.pc;
            ctx.threadId = access.threadId;
            ctx.isWrite = access.isWrite;
            ctx.isWriteback = false;
            ctx.set = l2.setIndex(ctx.lineAddr);
            const AccessOutcome l2_out = l2.access(ctx);
            if (l2_out.hit) {
                run.gapSum += gaps_[i];
                ++run.count;
                continue;
            }

            LlcOp op;
            op.lineAddr = access.lineAddr;
            op.pc = access.pc;
            op.accessIdx = static_cast<int32_t>(i);
            op.set = static_cast<uint32_t>(access.lineAddr & setMask_);
            op.threadId = access.threadId;
            op.isWrite = access.isWrite;
            ops_.push_back(op);
            // The op's own gap is replayed through onAccess; the run
            // of L2 hits before it is this op's timing segment.
            segments_.push_back(run);
            run = TimingSegment{};

            // Dirty L2 victim writes back into the LLC, in order.
            if (l2_out.evictedValid && l2_out.evictedDirty) {
                LlcOp wb;
                wb.lineAddr = l2_out.evictedAddr;
                wb.set = static_cast<uint32_t>(l2_out.evictedAddr &
                                               setMask_);
                wb.threadId = l2_out.evictedThread;
                wb.isWrite = true;
                wb.isWriteback = true;
                ops_.push_back(wb);
            }
        }
        tail_ = run;
        return n;
    }

    const std::vector<uint32_t> &gaps() const { return gaps_; }
    const std::vector<LlcOp> &ops() const { return ops_; }

    /** One TimingSegment per demand op, in op order. */
    const std::vector<TimingSegment> &segments() const { return segments_; }
    /** L2 hits after the chunk's last demand op. */
    const TimingSegment &tailSegment() const { return tail_; }

    void
    resetL2Stats()
    {
        for (auto &l2 : l2s_)
            l2->resetStats();
    }

  private:
    uint64_t setMask_;
    std::vector<std::unique_ptr<Cache>> l2s_;
    std::vector<uint32_t> gaps_;
    std::vector<LlcOp> ops_;
    std::vector<TimingSegment> segments_;
    TimingSegment tail_;
};

} // namespace detail
} // namespace pdp

#endif // PDP_SIM_LLC_STREAM_H
