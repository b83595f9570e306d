/**
 * @file
 * The replacement/bypass policy interface of the cache substrate.
 *
 * A policy owns all of its per-set replacement state (recency ranks,
 * RRPVs, remaining protecting distances, ...), kept in the cache's lent
 * per-set scratch row where it fits (scratch_rows.h).  The cache owns tags,
 * valid/dirty bits, the reuse bit and the owning thread id, and exposes
 * them read-only to the policy.
 *
 * Victim selection contract: the cache resolves invalid ways itself, so
 * selectVictim() is only called when the set is full; it returns either a
 * way index or kBypass (honoured only by caches configured to allow
 * bypass, i.e. non-inclusive caches).
 *
 * Dispatch: the cache calls a policy through the non-virtual access-path
 * ops (hitOp, victimOp, insertOp, bypassOp) of a static policy type P.
 * For P = ReplacementPolicy they forward to the virtual hooks; the
 * fused policies (one list in cache.cc) hide them with inline versions
 * that run the same row operations as their hooks, and the cache uses
 * those only for attached policies of exactly type P.
 */

#ifndef PDP_POLICIES_REPLACEMENT_POLICY_H
#define PDP_POLICIES_REPLACEMENT_POLICY_H

#include <cstdint>
#include <string>

namespace pdp
{

class Cache;
class InvariantReporter;

/** Per-access information handed to the policy. */
struct AccessContext
{
    uint64_t lineAddr = 0;
    uint64_t pc = 0;
    uint32_t set = 0;
    uint8_t threadId = 0;
    bool isWrite = false;
    /** Writeback from the level above (excluded from set dueling). */
    bool isWriteback = false;
    /** Issued by a prefetcher rather than a demand access. */
    bool isPrefetch = false;
};

/** Abstract replacement (and optionally bypass) policy. */
class ReplacementPolicy
{
  public:
    /** selectVictim() return value requesting a cache bypass. */
    static constexpr int kBypass = -1;

    virtual ~ReplacementPolicy() = default;

    /** Short policy name for reports (e.g. "DRRIP", "PDP-3").  Returns
     *  a reference to a cached string, so audit and report paths never
     *  allocate per call. */
    virtual const std::string &name() const = 0;

    /**
     * Bind the policy to its cache.  Called exactly once, before any
     * access.  Implementations must call the base method.
     */
    virtual void
    attach(Cache &cache, uint32_t num_sets, uint32_t num_ways)
    {
        cache_ = &cache;
        numSets_ = num_sets;
        numWays_ = num_ways;
    }

    /** The accessed line was found at `way`. */
    virtual void onHit(const AccessContext &ctx, int way) = 0;

    /**
     * The access missed and the set is full: choose a victim way, or
     * return kBypass to skip allocation (non-inclusive caches only).
     */
    virtual int selectVictim(const AccessContext &ctx) = 0;

    /** The missed line was installed at `way` (possibly an invalid way
     *  chosen by the cache without consulting selectVictim). */
    virtual void onInsert(const AccessContext &ctx, int way) = 0;

    /** The access missed and was bypassed (no allocation). */
    virtual void onBypass(const AccessContext &ctx) { (void)ctx; }

    // --- access-path ops (see the file comment) ---

    void hitOp(const AccessContext &ctx, int way) { onHit(ctx, way); }

    int victimOp(const AccessContext &ctx) { return selectVictim(ctx); }

    /** `replaced`: the way was chosen by victimOp() on this access (a
     *  fused victimOp may already have installed it). */
    void
    insertOp(const AccessContext &ctx, int way, bool replaced)
    {
        (void)replaced;
        onInsert(ctx, way);
    }

    void bypassOp(const AccessContext &ctx) { onBypass(ctx); }

    /** True if the policy ever returns kBypass. */
    virtual bool usesBypass() const { return false; }

    // --- invariant audit hooks (see src/check/invariant_auditor.h) ---

    /**
     * Validate global (per-policy, not per-set) state: parameter ranges,
     * PSEL counters, RDD conservation, ...  Overrides must call the base
     * method, which validates the attach contract.  Keep this cheap: the
     * auditor may run it every access.
     */
    virtual void auditGlobal(InvariantReporter &reporter) const;

    /** Validate the policy state of one set (RPD/RRPV ranges, stamp
     *  orderings, ...).  Cost budget is O(ways). */
    virtual void
    auditSet(uint32_t set, InvariantReporter &reporter) const
    {
        (void)set;
        (void)reporter;
    }

  protected:
    Cache *cache_ = nullptr;
    uint32_t numSets_ = 0;
    uint32_t numWays_ = 0;
};

} // namespace pdp

#endif // PDP_POLICIES_REPLACEMENT_POLICY_H
