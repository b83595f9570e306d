/**
 * @file
 * Exact reuse-distance profiler (software instrumentation, not hardware).
 *
 * Measures the paper's RD definition precisely — the number of accesses
 * to a cache set between two accesses to the same line — for every set,
 * with no sampling.  Used to plot the RDDs of Fig. 1 / Fig. 5b, to drive
 * the model-vs-measurement study of Fig. 6, and to validate the hardware
 * RD sampler in tests.
 */

#ifndef PDP_CORE_RD_PROFILER_H
#define PDP_CORE_RD_PROFILER_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/stats.h"

namespace pdp
{

/** Exact per-set reuse-distance profiler. */
class RdProfiler
{
  public:
    /**
     * @param num_sets sets of the profiled cache
     * @param d_max histogram range; larger distances land in overflow
     */
    explicit RdProfiler(uint32_t num_sets, uint32_t d_max = 256);

    /** Observe one access. */
    void observe(uint32_t set, uint64_t line_addr);

    /** RDD histogram: bucket d-1 counts reuses at distance d. */
    const Histogram &rdd() const { return histogram_; }

    /**
     * Chain-pair histogram: bucket k-1 counts reuses whose distance d
     * AND same-line previous reuse distance p satisfy max(d, p) = k.
     * A reuse contributes iff both links of the chain fit within d_max;
     * first touches and reuses whose predecessor overflowed are chain
     * starts at every threshold and are excluded.
     *
     * cum_pair(T) / cum(T) measures chain continuity Q(T): the fraction
     * of threshold-T hits whose protecting line was itself installed by
     * a threshold-T hit.  The analytic PDP model needs it because the
     * marginal RDD under-determines steady-state allocation — a line's
     * survival under protection depends on whether its reuses chain.
     */
    const Histogram &pairRdd() const { return pairHistogram_; }

    /** Total observed accesses. */
    uint64_t accesses() const { return accesses_; }

    /** Fraction of reuses with RD <= d_max out of all accesses (the bar
     *  shown at the right of each Fig. 1 plot is derived from this). */
    double coveredFraction() const;

    /**
     * Observed reuses with RD > d_max (the histogram's overflow bucket).
     * This is a lower bound on the true beyond-d_max mass: entries
     * pruned to bound memory re-enter as first touches, so their reuses
     * land in the never-reused remainder (accesses() - rdd().total())
     * instead.  The analytic model treats both as "long" lines; the
     * explicit split feeds fingerprints and prediction error bars.
     */
    uint64_t tailMass() const { return histogram_.overflow(); }

    /** Reuse distance with the highest count (the main RDD peak). */
    uint32_t peakRd() const;

    void reset();

    /**
     * Zero the histogram and the access count but keep every set's
     * recency state, so reuse distances spanning the boundary are still
     * measured.  This is the profiler's analogue of Hierarchy::
     * resetStats() after warmup: discard warmup observations without
     * cooling the tracked working set.
     */
    void clearCounts();

  private:
    struct LineState
    {
        /** set-access count at the line's previous access */
        uint64_t lastAccess = 0;
        /** the line's previous reuse distance: 0 = none yet (first
         *  touch), dMax_+1 = previous reuse overflowed the reach */
        uint32_t prevDist = 0;
    };

    struct SetState
    {
        std::unordered_map<uint64_t, LineState> lastAccess;
        uint64_t counter = 0;
    };

    void prune(SetState &state);

    uint32_t dMax_;
    std::vector<SetState> sets_;
    Histogram histogram_;
    Histogram pairHistogram_;
    uint64_t accesses_ = 0;
};

} // namespace pdp

#endif // PDP_CORE_RD_PROFILER_H
