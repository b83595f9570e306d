/**
 * @file
 * The analytic core timing model.
 *
 * The paper models an 8-deep, 4-wide out-of-order core with a 128-entry
 * instruction window (Table 1).  Cycle-accurate modelling is replaced by
 * a standard trace-simulation approximation:
 *
 *   cycles = instructions / width  +  sum of memory stalls
 *
 * where an L2 hit is fully hidden, an LLC hit charges a small fixed
 * penalty, and an LLC miss charges either the full exposed memory latency
 * (memLatency - window/width) or, if it falls within `mlpWindow`
 * instructions of the previous miss, the overlapped cost
 * memLatency / mlp — modelling the memory-level parallelism an OoO core
 * extracts from bursty misses.
 *
 * Absolute IPC is approximate; all paper figures use IPC ratios between
 * policies on the same trace, which this model preserves.
 */

#ifndef PDP_SIM_TIMING_MODEL_H
#define PDP_SIM_TIMING_MODEL_H

#include <compare>
#include <cstdint>

#include "cache/hierarchy.h"
#include "util/stats.h"

namespace pdp
{

/** Timing model parameters (defaults follow Table 1). */
struct TimingParams
{
    uint32_t width = 4;           //!< issue width
    uint32_t instrWindow = 128;   //!< OoO instruction window
    uint32_t l2HitPenalty = 0;    //!< L2 hits are hidden
    uint32_t llcHitPenalty = 8;   //!< exposed fraction of the 30-cycle LLC
    uint32_t memLatency = 200;    //!< memory access latency
    uint32_t mlp = 4;             //!< overlap factor for clustered misses
    uint32_t mlpWindow = 128;     //!< instr window for miss clustering
    auto operator<=>(const TimingParams &) const = default;
};

/** Streaming cycle/instruction accumulator for one thread. */
class TimingModel
{
  public:
    explicit TimingModel(TimingParams params = TimingParams())
        : params_(params)
    {}

    /** Account one access and the instructions preceding it. */
    void
    onAccess(uint32_t instr_gap, HitLevel level)
    {
        instructions_ += instr_gap;
        instrSinceMiss_ += instr_gap;
        switch (level) {
          case HitLevel::L2:
            stallCycles_ += params_.l2HitPenalty;
            break;
          case HitLevel::Llc:
            stallCycles_ += params_.llcHitPenalty;
            break;
          case HitLevel::Memory: {
            const uint32_t exposed = params_.memLatency >
                    params_.instrWindow / params_.width
                ? params_.memLatency - params_.instrWindow / params_.width
                : 0;
            const uint32_t charged = instrSinceMiss_ < params_.mlpWindow
                ? params_.memLatency / params_.mlp : exposed;
            stallCycles_ += charged;
            missLatency_.add(charged);
            instrSinceMiss_ = 0;
            break;
          }
        }
    }

    /** Account a run of `count` L2 hits carrying `gapSum` summed
     *  instructions — exactly equivalent to calling onAccess once per
     *  hit (same integer sums), folded to O(1) so the lockstep sweep's
     *  per-lane replay can skip the lane-invariant L2-hit accesses. */
    void
    onL2Hits(uint64_t gapSum, uint64_t count)
    {
        instructions_ += gapSum;
        instrSinceMiss_ += gapSum;
        stallCycles_ += count * params_.l2HitPenalty;
    }

    uint64_t instructions() const { return instructions_; }

    uint64_t
    cycles() const
    {
        return instructions_ / params_.width + stallCycles_;
    }

    double
    ipc() const
    {
        const uint64_t c = cycles();
        return c ? static_cast<double>(instructions_) / c : 0.0;
    }

    /** Log2 histogram of the per-miss stall cycles actually charged
     *  (overlapped or exposed); quantile() gives the p99-miss-latency
     *  bound the service-mode SLO accounting reports. */
    const Log2Histogram &missLatency() const { return missLatency_; }

    void
    reset()
    {
        instructions_ = 0;
        stallCycles_ = 0;
        instrSinceMiss_ = 0;
        missLatency_.reset();
    }

  private:
    TimingParams params_;
    uint64_t instructions_ = 0;
    uint64_t stallCycles_ = 0;
    uint64_t instrSinceMiss_ = 0;
    Log2Histogram missLatency_;
};

} // namespace pdp

#endif // PDP_SIM_TIMING_MODEL_H
