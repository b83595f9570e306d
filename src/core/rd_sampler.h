/**
 * @file
 * The reuse-distance sampler of Sec. 3.
 *
 * A small number of cache sets is monitored.  Each sampled set keeps a
 * FIFO of 16-bit partial tags; a new entry is inserted on average every
 * M-th access to the set (the insertion rate), so a FIFO of E entries
 * observes reuse distances up to ~E*M.  A FIFO hit reports the RD and
 * invalidates the entry.
 *
 * Two deliberate deviations from the paper's n*M + t position-based
 * distance recovery, both forced by the perfectly periodic loops of the
 * synthetic traffic (real traffic is merely *mostly* periodic, where the
 * original scheme degrades gracefully):
 *
 *  - insertion slots are dithered (probability 1/M per access, cheap
 *    LFSR in hardware) instead of strictly periodic, so sampling cannot
 *    phase-lock with a loop's set-visit period and systematically skip
 *    or over-sample particular lines;
 *  - each entry carries a 9-bit insertion timestamp (per-set access
 *    counter mod 512), so the RD is exact: RD = (now - stamp) mod 512,
 *    rejected if above d_max.  This costs 9 extra bits per entry, which
 *    the overhead model accounts for.
 *
 * The "Full" configuration of Fig. 9 (a FIFO per LLC set, M = 1,
 * d_max entries) is expressible with the same parameters.
 */

#ifndef PDP_CORE_RD_SAMPLER_H
#define PDP_CORE_RD_SAMPLER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "util/bitutil.h"

namespace pdp
{

/** Sampler geometry. */
struct RdSamplerParams
{
    uint32_t sampledSets = 32;   //!< FIFOs (paper: 32)
    uint32_t fifoEntries = 32;   //!< entries per FIFO (paper: 32)
    uint32_t insertionRate = 8;  //!< M: insert every M-th access
    uint32_t dMax = 256;         //!< maximum measurable distance

    /** The exact "Full" configuration for a cache with `num_sets` sets. */
    static RdSamplerParams
    full(uint32_t num_sets, uint32_t d_max = 256)
    {
        return {num_sets, d_max, 1, d_max};
    }

    /** Per-sampled-set storage in bits: tag + valid + 9-bit timestamp
     *  per entry, plus the 9-bit per-set access counter. */
    uint64_t
    bitsPerSet() const
    {
        return static_cast<uint64_t>(fifoEntries) * (16 + 1 + 9) + 9;
    }
};

/** Result of feeding one access to the sampler. */
struct RdObservation
{
    /** Measured reuse distance, if the access hit in a FIFO. */
    std::optional<uint32_t> rd;
    /** True if the access caused a FIFO insertion (counts toward N_t). */
    bool inserted = false;
};

/** The FIFO-based RD sampler. */
class RdSampler
{
  public:
    RdSampler(const RdSamplerParams &params, uint32_t num_cache_sets);

    /**
     * Feed one demand access.
     *
     * @param set cache set index of the access
     * @param line_addr accessed line address
     * @return observation (empty if the set is not sampled)
     */
    RdObservation observe(uint32_t set, uint64_t line_addr);

    /** True if `set` is one of the sampled sets. */
    bool isSampled(uint32_t set) const { return stride_.mod(set) == 0; }

    const RdSamplerParams &params() const { return params_; }

    /** Total sampler storage in bits (for the overhead model). */
    uint64_t storageBits() const;

    void reset();

  private:
    struct Entry
    {
        uint16_t tag = 0;
        uint16_t stamp = 0; //!< per-set access count mod 512 at insertion
        bool valid = false;
    };

    RdSamplerParams params_;
    // Power-of-two geometries (the paper's) divide by masks and shifts.
    FixedDivisor stride_;
    FixedDivisor entries_;
    FixedDivisor rate_;
    /** FIFOs laid out contiguously; head_[s] is the most recent slot. */
    std::vector<Entry> fifo_;
    std::vector<uint32_t> head_;
    std::vector<uint16_t> accessCounter_;
    uint64_t ditherState_ = 0x9e3779b97f4a7c15ULL;
};

} // namespace pdp

#endif // PDP_CORE_RD_SAMPLER_H
