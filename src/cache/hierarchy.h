/**
 * @file
 * The simulated memory hierarchy: per-thread private L2 caches (LRU,
 * inclusive of nothing — plain allocate-on-miss) above a non-inclusive
 * LLC running the policy under study, as in the paper's Table 1 setup
 * (the L1 filter is folded into the trace generators).
 *
 * Non-inclusive semantics: every L2 miss is a demand access to the LLC;
 * the fetched line fills the L2 always, and fills the LLC unless the LLC
 * policy bypasses it.  Dirty L2 victims write back to the LLC (allocating
 * there on a writeback miss unless bypassed); dirty LLC victims write
 * back to memory.
 *
 * The L2 half is written once, as PrivateL2s::walk: Hierarchy applies
 * each LLC access the walk emits to its one LLC at once, and the
 * lockstep front-end (sim/llc_stream.h) records them for N LLCs.
 */

#ifndef PDP_CACHE_HIERARCHY_H
#define PDP_CACHE_HIERARCHY_H

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "policies/basic.h"
#include "prefetch/stream_prefetcher.h"
#include "trace/access.h"

namespace pdp
{

/** Where an access was served from. */
enum class HitLevel { L2, Llc, Memory };

/** Outcome of one hierarchy access. */
struct HierarchyResult
{
    HitLevel level = HitLevel::Memory;
    bool llcBypassed = false;
};

/** Hierarchy configuration. */
struct HierarchyConfig
{
    CacheConfig l2 = CacheConfig::paperL2();
    CacheConfig llc = CacheConfig::paperLlc();
    unsigned numThreads = 1;

    bool operator==(const HierarchyConfig &) const = default;
};

/**
 * The hierarchy above the LLC: one private L2 per thread and the
 * optional stream prefetcher.  Nothing here reads the LLC, so the LLC
 * accesses a walk causes depend on the accesses alone, never on the
 * LLC's policy.
 */
class PrivateL2s
{
  public:
    explicit PrivateL2s(const HierarchyConfig &config);

    /** Train a stream prefetcher on the L2 input stream (Sec. 6.5). */
    void attachPrefetcher(std::unique_ptr<StreamPrefetcher> prefetcher);

    /**
     * Walk one demand access through its thread's L2 and hand every LLC
     * access it causes, with its LLC set index folded in, to
     * `emit(const AccessContext &)` in hierarchy order: the demand miss,
     * that miss's dirty L2 victim, then for each prefetch candidate the
     * L2 does not hold the prefetch fill (isPrefetch) and the dirty L2
     * victim of the line's own L2 fill.  The consumer applies a prefetch
     * fill only to an LLC that does not already hold the line.
     *
     * @return whether the demand hit the L2
     */
    template <typename Emit>
    bool
    walk(const Access &access, Emit &&emit)
    {
        Cache &l2 = *l2s_[access.threadId < l2s_.size() ? access.threadId
                                                        : 0];
        AccessContext ctx;
        ctx.lineAddr = access.lineAddr;
        ctx.pc = access.pc;
        ctx.threadId = access.threadId;
        ctx.isWrite = access.isWrite;
        // The set index is folded into the context per level, so
        // Cache::access never has to clone the context.
        ctx.set = l2.setIndex(ctx.lineAddr);
        const AccessOutcome out = l2.access(ctx);
        if (!out.hit) {
            ctx.set = llcSet(ctx.lineAddr);
            emit(ctx);
            writeBack(out, emit);
        }

        // The prefetcher trains on the L2 input stream, so detected
        // streams keep prefetching once their lines start hitting in
        // the L2, and fills both levels.  The LLC fill goes through the
        // policy, which is where the Sec. 6.5 prefetch-aware PDP
        // variants act: prefetched lines can be inserted protected,
        // inserted with PD = 1, or bypass the LLC entirely — in every
        // case the L2 copy keeps the prefetch benefit, and the variants
        // only differ in LLC pollution.
        if (prefetcher_)
            for (uint64_t addr :
                 prefetcher_->onDemand(access.lineAddr, !out.hit)) {
                if (l2.contains(addr))
                    continue;
                AccessContext pf;
                pf.lineAddr = addr;
                pf.pc = access.pc;
                pf.threadId = access.threadId;
                pf.isPrefetch = true;
                pf.set = llcSet(addr);
                emit(pf);
                pf.set = l2.setIndex(addr);
                writeBack(l2.access(pf), emit);
            }
        return out.hit;
    }

    Cache &l2(unsigned thread) { return *l2s_[thread]; }

    void resetStats();

  private:
    uint32_t
    llcSet(uint64_t lineAddr) const
    {
        return static_cast<uint32_t>(lineAddr & llcSetMask_);
    }

    /** Emit the writeback of `fill`'s victim if it was dirty. */
    template <typename Emit>
    void
    writeBack(const AccessOutcome &fill, Emit &emit) const
    {
        if (!fill.evictedValid || !fill.evictedDirty)
            return;
        AccessContext wb;
        wb.lineAddr = fill.evictedAddr;
        wb.set = llcSet(wb.lineAddr);
        wb.threadId = fill.evictedThread;
        wb.isWrite = true;
        wb.isWriteback = true;
        emit(wb);
    }

    uint64_t llcSetMask_;
    std::vector<std::unique_ptr<Cache>> l2s_;
    std::unique_ptr<StreamPrefetcher> prefetcher_;
};

/** The two-level simulated hierarchy. */
class Hierarchy
{
  public:
    /**
     * @param config geometry (llc.allowBypass should be true unless an
     *               inclusive LLC is being studied)
     * @param llc_policy replacement policy of the LLC under study
     */
    Hierarchy(const HierarchyConfig &config,
              std::unique_ptr<ReplacementPolicy> llc_policy);

    /** Run one demand access through the hierarchy. */
    HierarchyResult access(const Access &access);

    Cache &llc() { return *llc_; }
    const Cache &llc() const { return *llc_; }
    Cache &l2(unsigned thread = 0) { return l2s_.l2(thread); }

    /** Attach a stream prefetcher in front of the LLC (Sec. 6.5). */
    void
    attachPrefetcher(std::unique_ptr<StreamPrefetcher> prefetcher)
    {
        l2s_.attachPrefetcher(std::move(prefetcher));
    }

    void resetStats();

  private:
    PrivateL2s l2s_;
    std::unique_ptr<Cache> llc_;
};

} // namespace pdp

#endif // PDP_CACHE_HIERARCHY_H
