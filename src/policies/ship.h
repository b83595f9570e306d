/**
 * @file
 * SHiP-PC (signature-based hit prediction, Wu et al., MICRO 2011) on an
 * SRRIP base — the "grouping lines into classes" improvement direction
 * the paper discusses in Sec. 6.3.
 *
 * Each line remembers the PC signature that inserted it and whether it
 * was ever re-referenced.  A signature history counter table (SHCT)
 * accumulates the outcome per signature; signatures whose counter is zero
 * insert with a distant re-reference prediction.
 */

#ifndef PDP_POLICIES_SHIP_H
#define PDP_POLICIES_SHIP_H

#include <cstdint>
#include <vector>

#include "check/contracts.h"
#include "policies/rrip.h"
#include "util/sat_counter.h"

namespace pdp
{

/** SHiP-PC replacement. */
class ShipPolicy : public RripPolicy
{
  public:
    struct Params
    {
        unsigned shctLog2 = 14;   //!< 16K SHCT entries
        unsigned shctBits = 3;    //!< 3-bit saturating counters
    };

    ShipPolicy();
    explicit ShipPolicy(Params params);

    const std::string &
    name() const override
    {
        static const std::string n = "SHiP";
        return n;
    }

    void attach(Cache &cache, uint32_t num_sets, uint32_t num_ways) override;
    void onHit(const AccessContext &ctx, int way) override;
    int selectVictim(const AccessContext &ctx) override;
    void onInsert(const AccessContext &ctx, int way) override;

    void auditSet(uint32_t set, InvariantReporter &reporter) const override;

    /** Fault-injection hook for the checker tests. */
    SatCounter &debugShct(uint32_t index) { return shct_[index]; }

  private:
    uint32_t shctIndex(uint64_t pc) const;

    size_t
    lineIdx(uint32_t set, int way) const
    {
        return static_cast<size_t>(set) * numWays_ + way;
    }

    Params params_;
    std::vector<SatCounter> shct_;
    std::vector<uint32_t> lineSignature_;
    std::vector<bool> lineOutcome_;
};

// RRIP's RRPV row; the per-line signatures and outcome bits SHiP adds
// do not fit it and stay policy-owned.
PDP_SCRATCH_LAYOUT(ShipPolicy, RripRow);

} // namespace pdp

#endif // PDP_POLICIES_SHIP_H
