/**
 * @file
 * Set-associative cache with a pluggable replacement/bypass policy.
 *
 * Hot-path layout (see DESIGN.md "Hot path & memory layout"): the tag
 * store is structure-of-arrays.  Tags live in a densely packed
 * uint64_t array scanned with a branch-light loop the compiler can
 * vectorize; valid/dirty/reused flags are per-set 64-bit masks, so way
 * lookups, invalid-way selection and the steady-state "set is full"
 * test are single word operations instead of struct walks.  The layout
 * is observationally identical to the historical array-of-structs
 * store: the accessor surface (isValid/isDirty/isReused/lineThread/
 * lineAddr) reports exactly the same values, including the canonical
 * zeroed tag/thread of never-filled ways.
 */

#ifndef PDP_CACHE_CACHE_H
#define PDP_CACHE_CACHE_H

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_config.h"
#include "cache/cache_stats.h"
#include "check/contracts.h"
#include "policies/replacement_policy.h"
#include "util/bytescan.h"

namespace pdp
{

class InvariantAuditor;
class InvariantReporter;

/** Outcome of one cache access. */
struct AccessOutcome
{
    bool hit = false;
    bool bypassed = false;
    /** Way the line resides in after the access (-1 if bypassed). */
    int way = -1;
    /** A valid line was evicted to make room. */
    bool evictedValid = false;
    uint64_t evictedAddr = 0;
    bool evictedDirty = false;
    bool evictedReused = false;
    uint8_t evictedThread = 0;
};

/** Observer hook for instrumentation (e.g. the occupancy tracker). */
class CacheObserver
{
  public:
    virtual ~CacheObserver() = default;
    virtual void onHit(const AccessContext &ctx, int way) = 0;
    virtual void onInsert(const AccessContext &ctx, int way) = 0;
    virtual void onEvict(const AccessContext &ctx, int way,
                         uint64_t victim_addr, bool victim_reused) = 0;
    virtual void onBypass(const AccessContext &ctx) = 0;
};

/**
 * A set-associative cache.
 *
 * The cache owns tags and line state; replacement decisions are delegated
 * to the attached ReplacementPolicy.  Invalid ways are always filled
 * first, without consulting the policy's victim selection.
 *
 * Associativity is limited to 64 ways by the packed per-set state masks
 * (the paper's geometries are 8- and 16-way).
 */
class Cache
{
  public:
    /** Widest associativity covered by the per-set fingerprint and
     *  policy-scratch blocks (the paper's geometries are 8- and
     *  16-way); wider caches fall back to a full tag scan and
     *  policy-owned state. */
    static constexpr uint32_t kMaxFpWays = 16;

    Cache(const CacheConfig &config, std::unique_ptr<ReplacementPolicy> policy);

    /**
     * Perform one access (demand, writeback or prefetch per ctx flags).
     *
     * Callers on the hot path should fold the set index into the context
     * (`ctx.set = cache.setIndex(ctx.lineAddr)`) before calling; the
     * cache then uses the context as-is.  A context whose `set` does not
     * match the line address is fixed up in a local copy, so casual
     * callers remain correct.
     */
    AccessOutcome access(const AccessContext &ctx);

    /**
     * Hint that `set` is about to be accessed: prefetch its metadata
     * rows (fingerprints, packed state and policy scratch row, tags,
     * thread ids).  Trace-driven callers that know the next address
     * can issue this one access ahead to overlap the row fetches with
     * the current access; it is a pure performance hint with no
     * architectural effect.
     */
    void prefetchSet(uint32_t set) const;

    /** Probe without side effects: is the line present? */
    bool contains(uint64_t line_addr) const;

    // --- geometry ---
    uint32_t numSets() const { return numSets_; }
    uint32_t numWays() const { return ways_; }
    const CacheConfig &config() const { return config_; }

    uint32_t
    setIndex(uint64_t line_addr) const
    {
        return static_cast<uint32_t>(line_addr & (numSets_ - 1));
    }

    // --- line state exposed to policies ---
    bool
    isValid(uint32_t set, uint32_t way) const
    {
        return (setState_[set].valid >> way) & 1u;
    }

    bool
    isReused(uint32_t set, uint32_t way) const
    {
        return (setState_[set].reused >> way) & 1u;
    }

    bool
    isDirty(uint32_t set, uint32_t way) const
    {
        return (setState_[set].dirty >> way) & 1u;
    }

    uint8_t
    lineThread(uint32_t set, uint32_t way) const
    {
        return threadIds_[lineIdx(set, way)];
    }

    uint64_t
    lineAddr(uint32_t set, uint32_t way) const
    {
        return tags_[lineIdx(set, way)];
    }

    /** Packed valid bits of one set (bit w == way w valid). */
    uint64_t validMask(uint32_t set) const { return setState_[set].valid; }

    /**
     * Per-set scratch storage lent to the attached policy, kMaxFpWays
     * bytes per set in the same cache line as the set's masks and
     * fingerprints (so policy state rides along with every lookup for
     * free).  Returns nullptr when the cache is wider than kMaxFpWays
     * ways; rows are then policyScratchStride() bytes apart.  Zeroed at
     * construction; the policy owns the contents for the cache's
     * lifetime.
     */
    uint8_t *
    policyScratchBase()
    {
        return ways_ <= kMaxFpWays ? setState_.data()->scratch : nullptr;
    }

    static constexpr size_t
    policyScratchStride()
    {
        return sizeof(SetState);
    }

    /** Valid lines in `set`; steady state is validCount == numWays(). */
    uint32_t validCount(uint32_t set) const;

    /** Number of valid lines owned by `thread` in `set` (partitioning). */
    uint32_t threadWaysInSet(uint32_t set, uint8_t thread) const;

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    ReplacementPolicy &policy() { return *policy_; }
    const ReplacementPolicy &policy() const { return *policy_; }

    /** True when the attached policy is exactly one of the fused types
     *  (cache.cc's list) and runs their devirtualized access path. */
    bool fusedPath() const { return fused_; }

    /** Register an instrumentation observer (nullptr to remove). */
    void
    setObserver(CacheObserver *observer)
    {
        observer_ = observer;
        instrumented_ = observer_ != nullptr || auditor_ != nullptr;
    }

    /**
     * Register an invariant auditor (nullptr to remove); its onAccess()
     * cadence hook then fires after every access.  The auditor must
     * outlive the cache or be detached first.
     */
    void
    setAuditor(InvariantAuditor *auditor)
    {
        auditor_ = auditor;
        instrumented_ = observer_ != nullptr || auditor_ != nullptr;
    }

    // --- invariant audit hooks ---

    /** Cheap global checks: stats identities plus the policy's global
     *  audit.  O(threads), no line walk. */
    void auditGlobalInvariants(InvariantReporter &reporter) const;

    /** Line-state checks of one set (tag/set mapping, duplicate tags,
     *  thread ids, packed-mask consistency) plus the policy's per-set
     *  audit. */
    void auditSet(uint32_t set, InvariantReporter &reporter) const;

    /** Full walk: global checks + every set. */
    void auditInvariants(InvariantReporter &reporter) const;

    /** Fault-injection hook for the checker tests: mutable stats. */
    CacheStats &debugStats() { return stats_; }

  private:
    size_t
    lineIdx(uint32_t set, uint32_t way) const
    {
        return static_cast<size_t>(set) * ways_ + way;
    }

    /** One-byte fingerprint of a line address: the low tag byte. */
    uint8_t
    tagFp(uint64_t line_addr) const
    {
        return static_cast<uint8_t>(line_addr >> setBits_);
    }

    /**
     * Two-level tag probe: one vector compare over the set's byte
     * fingerprints narrows the lookup to candidate ways (almost always
     * zero on a miss, one on a hit), and only those candidates touch
     * the full 8-byte tags.  Fingerprint collisions cost an extra
     * verify, never a wrong answer.  Caches wider than kMaxFpWays scan
     * the full tag row instead.  Defined here so the access fast path
     * inlines it.
     */
    PDP_HOT int
    findWay(uint32_t set, uint64_t line_addr) const
    {
        const size_t base = lineIdx(set, 0);
        const SetState &state = setState_[set];
        if (ways_ <= kMaxFpWays) [[likely]] {
            uint64_t cand = byteMatchMask(state.fp, ways_,
                                          tagFp(line_addr)) &
                            state.valid;
            while (cand) {
                const int way = std::countr_zero(cand);
                if (tags_[base + way] == line_addr)
                    return way;
                cand &= cand - 1;
            }
            return -1;
        }
        const uint64_t *row = tags_.data() + base;
        uint64_t match = 0;
        for (uint32_t way = 0; way < ways_; ++way)
            match |= static_cast<uint64_t>(row[way] == line_addr) << way;
        match &= state.valid;
        return match ? std::countr_zero(match) : -1;
    }

    PDP_HOT int
    findInvalidWay(uint32_t set) const
    {
        const uint64_t free = ~setState_[set].valid & fullSetMask_;
        return free ? std::countr_zero(free) : -1;
    }

    /**
     * The access path for policy type P: the access-path ops of P are
     * called non-virtually (P = ReplacementPolicy forwards to the
     * virtual hooks).  Instrumented == false is compiled without any
     * observer/auditor branches.  PDP_HOT on this declaration covers
     * the out-of-line template definition in cache.cc (pdplint
     * hot-marks by name).
     */
    template <typename P, bool Instrumented>
    PDP_HOT AccessOutcome accessImpl(const AccessContext &ctx);

    /** An instantiated access path. */
    using AccessPath = AccessOutcome (Cache::*)(const AccessContext &);

    /** Point the access paths at the first of `Fused` the attached
     *  policy is exactly an instance of, else at the virtual fallback. */
    template <typename... Fused> void selectAccessPaths();

    CacheConfig config_;
    uint32_t numSets_;
    uint32_t ways_;
    /** All bits of one full set: (1 << ways) - 1. */
    uint64_t fullSetMask_;
    /** Dense per-(set, way) tag array; invalid ways hold tag 0. */
    std::vector<uint64_t> tags_;
    /** log2(numSets_): the fingerprint is a byte of the tag, addr >> setBits_. */
    uint32_t setBits_ = 0;
    /** Per-(set, way) owning thread; invalid ways hold 0. */
    std::vector<uint8_t> threadIds_;
    /**
     * All per-set metadata in one aligned 64-byte block: the packed
     * valid/dirty/reused masks (bit w describes way w), the one-byte
     * tag fingerprints of up to kMaxFpWays ways, and a 16-byte scratch
     * row lent to the attached replacement policy (LRU ranks, RRIP
     * RRPVs and PDP remaining protecting distances live there).  An
     * access touches exactly one cache line of set metadata; the masks,
     * fingerprints and policy rows were separate arrays once, which
     * cost a host-cache miss per array on scattered traces.
     */
    struct alignas(64) SetState
    {
        uint64_t valid = 0;
        uint64_t dirty = 0;
        uint64_t reused = 0;
        /** Tag fingerprints, maintained only when ways <= kMaxFpWays. */
        uint8_t fp[kMaxFpWays] = {};
        /** Per-set policy scratch (see policyScratchBase()). */
        uint8_t scratch[kMaxFpWays] = {};
        uint8_t pad[8] = {};
    };
    static_assert(sizeof(SetState) == 64, "SetState must be one cache line");
    static_assert(sizeof(SetState::scratch) == kPolicyScratchBytes,
                  "the contracts.h scratch-row size must match the lent "
                  "per-set scratch block");

    std::vector<SetState> setState_;
    std::unique_ptr<ReplacementPolicy> policy_;
    /** The attached policy's access paths without and with the
     *  observer/auditor hooks, chosen once at construction. */
    AccessPath fastPath_ = nullptr;
    AccessPath instrumentedPath_ = nullptr;
    bool fused_ = false;
    CacheStats stats_;
    CacheObserver *observer_ = nullptr;
    InvariantAuditor *auditor_ = nullptr;
    /** observer_ || auditor_: selects the instrumented access path. */
    bool instrumented_ = false;
};

} // namespace pdp

#endif // PDP_CACHE_CACHE_H
