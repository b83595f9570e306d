/**
 * @file
 * RRIP family: SRRIP, BRRIP and DRRIP (Jaleel et al., ISCA 2010).
 *
 * 2-bit re-reference prediction values (RRPV).  SRRIP inserts with a
 * "long" prediction (RRPV = max-1); BRRIP inserts "distant" (RRPV = max)
 * except with probability epsilon, where it inserts long; DRRIP set-duels
 * the two.  Epsilon is a constructor parameter so Fig. 2's sweep can vary
 * it from 1/4 down to 1/256.
 */

#ifndef PDP_POLICIES_RRIP_H
#define PDP_POLICIES_RRIP_H

#include <memory>
#include <vector>

#include "check/contracts.h"
#include "policies/dueling.h"
#include "policies/replacement_policy.h"
#include "policies/scratch_rows.h"
#include "util/rng.h"

namespace pdp
{

/**
 * SRRIP / BRRIP / DRRIP in one implementation.
 *
 * The RRPVs are one byte per way in the cache's scratch row (policy
 * rows beyond 16 ways), so a hit, a victim search with its aging, and an
 * insertion each touch only the set-metadata line the tag probe loaded.
 * Set dueling runs one monitor for DRRIP and one per thread for the
 * thread-aware subclass: the monitor of an access is picked by thread,
 * so neither needs a virtual hook on the access path.
 */
class RripPolicy : public ReplacementPolicy, public telemetry::Source
{
  public:
    enum class Mode { Srrip, Brrip, Drrip };

    /**
     * @param mode which member of the family
     * @param epsilon BRRIP probability of a "long" insertion (paper: 1/32)
     * @param rrpv_bits RRPV width (paper: 2)
     */
    explicit RripPolicy(Mode mode, double epsilon = 1.0 / 32,
                        unsigned rrpv_bits = 2, uint64_t seed = 0x5712);

    const std::string &name() const override { return name_; }

    void attach(Cache &cache, uint32_t num_sets, uint32_t num_ways) override;
    void onHit(const AccessContext &ctx, int way) override;
    int selectVictim(const AccessContext &ctx) override;
    void onInsert(const AccessContext &ctx, int way) override;

    void auditGlobal(InvariantReporter &reporter) const override;
    void auditSet(uint32_t set, InvariantReporter &reporter) const override;

    // Access-path ops of the fused path; the virtual hooks run the same.

    /** Hit promotion: predict near-immediate re-reference. */
    PDP_HOT void
    hitOp(const AccessContext &ctx, int way)
    {
        rrpv(ctx.set, way) = 0;
    }

    /** The first distant (RRPV == max) way, aging the set until one
     *  exists (rripTakeVictim). */
    PDP_HOT int
    victimOp(const AccessContext &ctx)
    {
        return rripTakeVictim(rows_.row(ctx.set), numWays_, maxRrpv_,
                              rows_.vec16());
    }

    PDP_HOT void
    insertOp(const AccessContext &ctx, int way, bool replaced)
    {
        (void)replaced;
        rrpv(ctx.set, way) = insertionRrpv(ctx);
    }

    /** Epoch telemetry: the DRRIP set-dueling PSEL (empty for
     *  SRRIP/BRRIP). */
    void
    telemetrySnapshot(telemetry::Snapshot &out) const override
    {
        if (!monitors_.empty())
            monitors_.front().telemetrySnapshot(out);
    }

    // --- fault-injection hooks for the checker tests ---
    uint8_t
    debugRrpv(uint32_t set, int way) const
    {
        return rows_.row(set)[way];
    }
    void
    debugSetRrpv(uint32_t set, int way, uint8_t value)
    {
        rrpv(set, way) = value;
    }

  protected:
    uint8_t &rrpv(uint32_t set, int way) { return rows_.row(set)[way]; }

    /**
     * RRPV of a missed line: records a demand miss with the access's
     * dueling monitor, then inserts "long" (max - 1) for SRRIP
     * behaviour, or BRRIP's "distant" (max) except with probability
     * epsilon.
     */
    PDP_HOT uint8_t
    insertionRrpv(const AccessContext &ctx)
    {
        bool brrip = mode_ == Mode::Brrip;
        if (!monitors_.empty()) {
            SetDueling &monitor = monitors_[ctx.threadId < monitors_.size()
                                                ? ctx.threadId
                                                : 0];
            if (!ctx.isWriteback)
                monitor.recordMiss(ctx.set);
            brrip = monitor.setUsesB(ctx.set);
        }
        return brrip && !rng_.chance(epsilon_)
            ? maxRrpv_
            : static_cast<uint8_t>(maxRrpv_ - 1);
    }

    Mode mode_;
    double epsilon_;
    uint8_t maxRrpv_;
    Rng rng_;
    /** Set-dueling monitors, indexed by thread (threads past the last
     *  share monitor 0): none for SRRIP/BRRIP, one for DRRIP. */
    std::vector<SetDueling> monitors_;

  private:
    ScratchRows rows_;
    std::string name_;
};

std::unique_ptr<RripPolicy> makeSrrip();
std::unique_ptr<RripPolicy> makeBrrip(double epsilon = 1.0 / 32);
std::unique_ptr<RripPolicy> makeDrrip(double epsilon = 1.0 / 32);

// One RRPV byte per way in the cache's lent row.
PDP_SCRATCH_LAYOUT(RripPolicy, RripRow);

} // namespace pdp

#endif // PDP_POLICIES_RRIP_H
