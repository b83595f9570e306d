/**
 * @file
 * Access-pattern primitives used to compose synthetic benchmarks.
 *
 * Each primitive produces line addresses inside its own address region and
 * a synthetic PC drawn from a small per-pattern PC pool (so PC-based
 * predictors such as SDP can learn per-pattern behaviour, as they would
 * learn per-static-load behaviour in a real program).
 *
 * The primitives map onto reuse-distance-distribution (RDD) classes:
 *
 *  - LoopPattern: cyclic walk over a working set; produces a sharp RDD
 *    peak at (workingSetLines / llcSets) / mixtureWeight.
 *  - ScanPattern: never-reused streaming (RD = infinity).
 *  - ChasePattern: uniform random touches of a working set; produces a
 *    geometric RDD with mean (lines / llcSets) / weight.
 *  - HotColdPattern: nested hot sets; produces an LRU-friendly RDD with
 *    mass concentrated at small distances.
 */

#ifndef PDP_TRACE_PATTERNS_H
#define PDP_TRACE_PATTERNS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

namespace pdp
{

/** Base class for address-pattern primitives. */
class Pattern
{
  public:
    virtual ~Pattern() = default;

    /** Produce the next line address of this pattern. */
    virtual uint64_t nextLine(Rng &rng) = 0;

    /** Rewind internal position state. */
    virtual void reset() = 0;

    /** Bind the pattern to its address region and PC pool. */
    void
    bind(uint64_t region_base, uint64_t pc_base, unsigned num_pcs)
    {
        regionBase_ = region_base;
        pcBase_ = pc_base;
        numPcs_ = num_pcs ? num_pcs : 1;
    }

    /**
     * Next synthetic PC, drawn uniformly from the pool.  A uniform draw
     * (rather than a cycling cursor) keeps the PC stream uncorrelated
     * with the address walk, as it would be in a real program where many
     * static loads iterate the same data structure.
     */
    uint64_t
    nextPc(Rng &rng)
    {
        return pcBase_ + 4 * rng.below(numPcs_);
    }

  protected:
    uint64_t regionBase_ = 0;

  private:
    uint64_t pcBase_ = 0;
    unsigned numPcs_ = 1;
};

using PatternPtr = std::unique_ptr<Pattern>;

/** Cyclic sequential walk over a fixed working set (strided). */
class LoopPattern : public Pattern
{
  public:
    /**
     * @param lines working-set size in cache lines
     * @param stride walk stride in lines
     * @param drift_period if nonzero, the loop window slides forward by
     *        one line every `drift_period` accesses to this pattern.
     *        The RDD peak position is unchanged, but the working set
     *        slowly turns over as in real applications — which is what
     *        separates policies that re-adopt new lines quickly (PDP,
     *        RRIP) from probabilistic-retention insertion policies (BIP).
     */
    explicit LoopPattern(uint64_t lines, uint64_t stride = 1,
                         uint64_t drift_period = 0);

    uint64_t nextLine(Rng &rng) override;
    void reset() override;

    uint64_t lines() const { return lines_; }

  private:
    uint64_t lines_;
    uint64_t stride_;
    uint64_t driftPeriod_;
    uint64_t ringLines_;
    uint64_t pos_ = 0;
    uint64_t offset_ = 0;
    uint64_t sinceDrift_ = 0;
};

/** Streaming access to ever-fresh lines; never reused within a run. */
class ScanPattern : public Pattern
{
  public:
    /** @param wrapLines address region size before wrapping (effectively
     *  infinite for any realistic run length). */
    explicit ScanPattern(uint64_t wrapLines = 1ull << 34);

    uint64_t nextLine(Rng &rng) override;
    void reset() override;

  private:
    uint64_t wrapLines_;
    uint64_t pos_ = 0;
};

/** Uniform random (pointer-chase-like) touches of a working set. */
class ChasePattern : public Pattern
{
  public:
    explicit ChasePattern(uint64_t lines);

    uint64_t nextLine(Rng &rng) override;
    void reset() override;

  private:
    uint64_t lines_;
};

/**
 * Nested hot-set pattern: with probability p_k the access falls uniformly
 * in the k-th (smallest-first) nested working set.  Approximates the
 * stack-distance profile of LRU-friendly applications.
 */
class HotColdPattern : public Pattern
{
  public:
    struct Level
    {
        uint64_t lines;  //!< cumulative working-set size of this level
        double prob;     //!< probability mass of this level
    };

    /**
     * @param levels nested working-set levels (strictly growing sizes)
     * @param drift_period if nonzero, the working-set window slides by
     *        one line every `drift_period` accesses to this pattern,
     *        modelling the slow working-set turnover of real programs
     *        (this is what separates predictors that re-learn in one miss
     *        from insertion policies that converge probabilistically)
     */
    explicit HotColdPattern(std::vector<Level> levels,
                            uint64_t drift_period = 0);

    uint64_t nextLine(Rng &rng) override;
    void reset() override;

  private:
    std::vector<Level> levels_;
    uint64_t driftPeriod_;
    uint64_t ringLines_;
    uint64_t offset_ = 0;
    uint64_t sinceDrift_ = 0;
};

/** One weighted component of a mixture. */
struct MixtureComponent
{
    double weight;
    PatternPtr pattern;
};

/**
 * Probabilistic mixture of patterns: each access is drawn from component
 * i with probability weight_i / sum(weights).
 */
class MixturePattern : public Pattern
{
  public:
    explicit MixturePattern(std::vector<MixtureComponent> components);

    uint64_t nextLine(Rng &rng) override;
    void reset() override;

    /** The pattern that produced the most recent line (for PC lookup). */
    Pattern &lastComponent() { return *components_[last_].pattern; }

  private:
    std::vector<MixtureComponent> components_;
    std::vector<double> cumulative_;
    size_t last_ = 0;
};

} // namespace pdp

#endif // PDP_TRACE_PATTERNS_H
