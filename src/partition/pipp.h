/**
 * @file
 * PIPP — promotion/insertion pseudo-partitioning (Xie & Loh, ISCA 2009).
 *
 * Each set maintains an explicit priority order.  Thread t inserts at
 * priority position pi_t (its UMON way allocation), lines promote by one
 * position on a hit with probability p_prom, and the victim is always the
 * lowest-priority line.  Threads classified as streaming (miss count and
 * miss rate above thresholds over an epoch) insert at the bottom, with a
 * small probability p_stream of a normal insertion.
 */

#ifndef PDP_PARTITION_PIPP_H
#define PDP_PARTITION_PIPP_H

#include <memory>
#include <vector>

#include "check/contracts.h"
#include "partition/umon.h"
#include "policies/replacement_policy.h"
#include "telemetry/source.h"
#include "util/rng.h"

namespace pdp
{

/** PIPP replacement. */
class PippPolicy : public ReplacementPolicy, public telemetry::Source
{
  public:
    struct Params
    {
        double promotionProb = 3.0 / 4;   //!< p_prom
        double streamInsertProb = 1.0 / 128; //!< p_stream
        uint64_t streamMissThreshold = 4095;  //!< theta_m per epoch
        double streamMissRate = 1.0 / 8;      //!< theta_mr
        uint64_t epochAccesses = 100'000;
        uint64_t repartitionInterval = 1'000'000;
    };

    explicit PippPolicy(unsigned num_threads);
    PippPolicy(unsigned num_threads, Params params, uint64_t seed = 0x9199);

    const std::string &
    name() const override
    {
        static const std::string n = "PIPP";
        return n;
    }

    void attach(Cache &cache, uint32_t num_sets, uint32_t num_ways) override;
    void onHit(const AccessContext &ctx, int way) override;
    int selectVictim(const AccessContext &ctx) override;
    void onInsert(const AccessContext &ctx, int way) override;

    void auditGlobal(InvariantReporter &reporter) const override;
    void auditSet(uint32_t set, InvariantReporter &reporter) const override;

    const std::vector<uint32_t> &allocation() const { return alloc_; }

    /** Epoch telemetry: way allocation + streaming classification. */
    void
    telemetrySnapshot(telemetry::Snapshot &out) const override
    {
        out.setSeries("allocation",
                      std::vector<double>(alloc_.begin(), alloc_.end()));
        std::vector<double> streaming(streaming_.size());
        for (size_t t = 0; t < streaming_.size(); ++t)
            streaming[t] = streaming_[t] ? 1.0 : 0.0;
        out.setSeries("streaming", std::move(streaming));
    }

    /** Fault-injection hook for the checker tests. */
    void
    debugSetOrder(uint32_t set, uint32_t pos, uint8_t way)
    {
        orderAt(set, pos) = way;
    }

  private:
    void observe(const AccessContext &ctx);

    /** Priority position of `way` in its set (0 = next victim). */
    uint32_t positionOf(uint32_t set, int way) const;

    uint8_t &orderAt(uint32_t set, uint32_t pos)
    {
        return order_[static_cast<size_t>(set) * numWays_ + pos];
    }

    const uint8_t &orderAt(uint32_t set, uint32_t pos) const
    {
        return order_[static_cast<size_t>(set) * numWays_ + pos];
    }

    /** Move `way` to priority position `pos`, shifting others down. */
    void placeAt(uint32_t set, int way, uint32_t pos);

    unsigned numThreads_;
    Params params_;
    Rng rng_;
    std::unique_ptr<Umon> umon_;
    std::vector<uint32_t> alloc_;
    /** order_[set * ways + p] = way at priority position p. */
    std::vector<uint8_t> order_;
    std::vector<bool> streaming_;
    std::vector<uint64_t> epochMisses_;
    std::vector<uint64_t> epochAccesses_;
    uint64_t accesses_ = 0;
};

// PIPP's per-set priority order is a policy-owned byte array (it
// would fit the row; candidate for a future migration), and the UMON
// and allocation state are global.
PDP_SCRATCH_LAYOUT(PippPolicy, NoScratchState);

} // namespace pdp

#endif // PDP_PARTITION_PIPP_H
