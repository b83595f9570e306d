/**
 * @file
 * Set-dueling monitor (SDM) shared by DIP, DRRIP and TA-DRRIP.
 *
 * A handful of leader sets always run policy A, another handful always
 * run policy B; a saturating PSEL counter tallies leader misses and the
 * remaining follower sets adopt the winner (Qureshi et al., ISCA'07).
 */

#ifndef PDP_POLICIES_DUELING_H
#define PDP_POLICIES_DUELING_H

#include <cstdint>

#include "check/check.h"
#include "check/invariant_auditor.h"
#include "telemetry/source.h"
#include "util/bitutil.h"
#include "util/sat_counter.h"

namespace pdp
{

/** One A-vs-B set-dueling monitor. */
class SetDueling
{
  public:
    /**
     * @param num_sets cache sets
     * @param leaders_per_policy leader sets dedicated to each policy
     * @param psel_bits PSEL width (paper: 32 leaders, 10-bit PSEL)
     * @param salt offsets the leader mapping so several monitors (e.g.
     *             per-thread in TA-DRRIP) use different leader sets
     */
    SetDueling(uint32_t num_sets, uint32_t leaders_per_policy = 32,
               unsigned psel_bits = 10, uint32_t salt = 0)
        : numSets_(num_sets),
          region_(leaders_per_policy > 0 ? num_sets / leaders_per_policy
                                         : 0),
          salt_(salt % num_sets),
          psel_(psel_bits, (1u << psel_bits) / 2)
    {
        PDP_CHECK(leaders_per_policy > 0 && region_.value() >= 2,
                  "dueling needs >= 2 sets per leader region: ", num_sets,
                  " sets / ", leaders_per_policy, " leaders");
    }

    /** 0 = leader of A, 1 = leader of B, -1 = follower.  Runs on every
     *  fill, so power-of-two geometries take masks, not divisions. */
    int
    leaderType(uint32_t set) const
    {
        const uint32_t pos = region_.mod(numSets_.mod(set + salt_));
        if (pos == 0)
            return 0;
        if (pos == region_.value() / 2)
            return 1;
        return -1;
    }

    /** Record a demand miss (call for leader and follower sets alike;
     *  followers are ignored).  A-leader misses push PSEL toward B. */
    void
    recordMiss(uint32_t set)
    {
        const int type = leaderType(set);
        if (type == 0)
            psel_.increment();
        else if (type == 1)
            psel_.decrement();
    }

    /** Policy the given set should run right now. */
    bool
    setUsesB(uint32_t set) const
    {
        const int type = leaderType(set);
        if (type == 0)
            return false;
        if (type == 1)
            return true;
        return psel_.msbSet();
    }

    uint32_t pselValue() const { return psel_.value(); }
    uint32_t pselMax() const { return psel_.max(); }

    /** The policy follower sets currently adopt (telemetry/diagnostics). */
    bool followersUseB() const { return psel_.msbSet(); }

    /** Append this monitor's state to a telemetry snapshot. */
    void
    telemetrySnapshot(telemetry::Snapshot &out) const
    {
        out.setScalar("psel", pselValue());
        out.setScalar("psel_max", pselMax());
        out.setScalar("psel_b", followersUseB() ? 1.0 : 0.0);
    }

    /** Invariant audit: the PSEL stays within its configured width. */
    void
    audit(InvariantReporter &reporter, const char *owner) const
    {
        reporter.check(psel_.value() <= psel_.max(), "dueling.psel_range",
                       owner, ": PSEL ", psel_.value(), " exceeds max ",
                       psel_.max());
    }

    /** Fault-injection hook for the checker tests. */
    void debugForcePsel(uint32_t v) { psel_.debugForceValue(v); }

  private:
    FixedDivisor numSets_;
    FixedDivisor region_;
    uint32_t salt_;
    SatCounter psel_;
};

} // namespace pdp

#endif // PDP_POLICIES_DUELING_H
