/**
 * @file
 * SDP — sampling dead block prediction (Khan, Jiménez et al., MICRO 2010),
 * one of the paper's single-core comparison points.
 *
 * A small decoupled sampler simulates a handful of cache sets with partial
 * tags and remembers the PC that last touched each sampler entry.  When a
 * sampler entry is evicted without a further touch, that PC is trained
 * "dead"; when it is touched again, "live".  A skewed three-table
 * predictor of saturating counters then classifies LLC accesses: lines
 * predicted dead on arrival are bypassed, and victim selection prefers
 * lines whose last touch was predicted dead, falling back to LRU.
 */

#ifndef PDP_POLICIES_SDP_H
#define PDP_POLICIES_SDP_H

#include <cstdint>
#include <vector>

#include "check/contracts.h"
#include "policies/basic.h"
#include "util/sat_counter.h"

namespace pdp
{

/** The skewed PC-indexed dead-block predictor tables. */
class DeadBlockPredictor
{
  public:
    struct Params
    {
        unsigned tables = 3;
        unsigned entriesLog2 = 13; //!< 8K entries per table (3x original)
        unsigned counterBits = 2;
        /** Summed-counter threshold at/above which a PC predicts dead. */
        uint32_t threshold = 8;
    };

    DeadBlockPredictor();
    explicit DeadBlockPredictor(Params params);

    /** Train toward dead (true) or live (false) for this PC signature. */
    void train(uint16_t signature, bool dead);

    /** Predict whether a block last touched by this PC is dead. */
    bool predictDead(uint16_t signature) const;

    /** Storage cost in bits (for the overhead model). */
    uint64_t storageBits() const;

  private:
    uint32_t index(unsigned table, uint16_t signature) const;

    Params params_;
    std::vector<std::vector<SatCounter>> tables_;
};

/** The SDP replacement/bypass policy (LRU base). */
class SdpPolicy : public LruPolicy
{
  public:
    struct Params
    {
        uint32_t samplerSets = 32;
        uint32_t samplerAssoc = 12;
        DeadBlockPredictor::Params predictor;
    };

    SdpPolicy();
    explicit SdpPolicy(Params params);

    const std::string &
    name() const override
    {
        static const std::string n = "SDP";
        return n;
    }
    bool usesBypass() const override { return true; }

    void attach(Cache &cache, uint32_t num_sets, uint32_t num_ways) override;
    void onHit(const AccessContext &ctx, int way) override;
    int selectVictim(const AccessContext &ctx) override;
    void onInsert(const AccessContext &ctx, int way) override;
    void onBypass(const AccessContext &ctx) override;

    void auditGlobal(InvariantReporter &reporter) const override;
    void auditSet(uint32_t set, InvariantReporter &reporter) const override;

    /** Fault-injection hook for the checker tests. */
    void
    debugSetDeadBit(uint32_t set, int way, uint8_t value)
    {
        deadBit(set, way) = value;
    }

  private:
    struct SamplerEntry
    {
        uint16_t tag = 0;
        uint16_t signature = 0;
        bool valid = false;
        uint64_t lru = 0;
    };

    /** Sampler set index for an LLC set, or -1 if not sampled. */
    int samplerIndex(uint32_t set) const;

    /** Feed one demand access through the sampler. */
    void sample(const AccessContext &ctx);

    uint8_t &deadBit(uint32_t set, int way)
    {
        return deadBits_[static_cast<size_t>(set) * numWays_ + way];
    }

    static uint16_t pcSignature(uint64_t pc);

    Params params_;
    DeadBlockPredictor predictor_;
    std::vector<SamplerEntry> sampler_;
    std::vector<uint8_t> deadBits_;
    uint64_t samplerClock_ = 0;
    uint32_t sampleStride_ = 1;
};

// SDP's in-row state is the inherited LRU rank permutation; the dead
// bits, sampler and predictor tables are policy-owned (off-row).
PDP_SCRATCH_LAYOUT(SdpPolicy, LruRankRow);

} // namespace pdp

#endif // PDP_POLICIES_SDP_H
