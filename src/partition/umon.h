/**
 * @file
 * UMON — the utility monitor of UCP (Qureshi & Patt, MICRO 2006), shared
 * by the UCP and PIPP implementations.
 *
 * Each thread owns a shadow tag directory for a few sampled sets with the
 * full cache associativity and true-LRU ordering.  Hits are recorded per
 * LRU stack position, yielding the thread's utility curve (how many extra
 * hits the w-th way would provide).  The lookahead algorithm then assigns
 * ways to threads by greatest marginal utility.
 */

#ifndef PDP_PARTITION_UMON_H
#define PDP_PARTITION_UMON_H

#include <cstdint>
#include <vector>

namespace pdp
{

/** Per-thread utility monitor with the lookahead partitioning algorithm. */
class Umon
{
  public:
    /**
     * @param num_threads threads sharing the cache
     * @param num_cache_sets LLC sets
     * @param assoc LLC associativity
     * @param sampled_sets shadow-directory sets (paper: 32)
     */
    Umon(unsigned num_threads, uint32_t num_cache_sets, uint32_t assoc,
         uint32_t sampled_sets = 32);

    /** Feed a demand access (updates the owner thread's shadow tags). */
    void observe(uint32_t set, uint64_t line_addr, uint8_t thread);

    /** Hits thread t would get with `ways` ways (prefix of its curve). */
    uint64_t hitsWithWays(unsigned thread, uint32_t ways) const;

    /**
     * The UCP lookahead algorithm: partition `assoc` ways among the
     * ACTIVE threads, at least one way each, maximizing expected total
     * utility.  Inactive threads get 0 ways.  All threads are active by
     * default; service mode toggles slots via setActive().
     */
    std::vector<uint32_t> lookaheadPartition() const;

    /** Include/exclude a thread slot from partitioning (tenant churn). */
    void setActive(unsigned thread, bool active);

    /** Forget a slot's shadow tags and utility curve (slot recycling:
     *  a new tenant must not inherit the previous occupant's curve). */
    void resetThread(unsigned thread);

    /** Halve all counters (epoch decay). */
    void decay();

    /** Storage cost of the monitor in bits (overhead model). */
    uint64_t storageBits() const;

  private:
    struct Entry
    {
        uint64_t tag = 0;
        uint64_t lru = 0;
        bool valid = false;
    };

    Entry &entry(unsigned thread, uint32_t sset, uint32_t way);
    const Entry &entry(unsigned thread, uint32_t sset, uint32_t way) const;

    unsigned numThreads_;
    uint32_t assoc_;
    uint32_t sampledSets_;
    uint32_t stride_;
    std::vector<Entry> shadow_;
    /** wayHits_[t][i]: hits at LRU stack position i (0 = MRU). */
    std::vector<std::vector<uint64_t>> wayHits_;
    /** Slot liveness; all 1 outside tenant mode. */
    std::vector<uint8_t> active_;
    uint64_t clock_ = 0;
};

} // namespace pdp

#endif // PDP_PARTITION_UMON_H
