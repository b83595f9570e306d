/**
 * @file
 * The InvariantAuditor: cadence-driven validation of live simulator state.
 *
 * Every subsystem exposes audit hooks (Cache::auditSet/auditInvariants,
 * ReplacementPolicy::auditGlobal/auditSet, OccupancyTracker::
 * auditInvariants); the auditor walks them while the simulation runs and
 * collects violated invariants into an InvariantReporter.
 *
 * Cost model: a full walk of a 2 MB LLC is ~64K lines, far too much per
 * access.  The auditor therefore splits its work:
 *
 *  - every `cadence` observed accesses it runs the cheap global checks
 *    (stats identities, PSEL/PD ranges, RDD conservation) plus the
 *    per-set checks of ONE set, rotating round-robin, so `cadence = 1`
 *    ("max cadence") still covers the whole cache every numSets accesses
 *    at O(ways) per access;
 *  - every kFullEvery observed accesses it walks everything at once.
 *
 * A pass that finds any violation throws CheckFailure; its message is
 * the pass's whole InvariantReporter::report(), so it names every
 * invariant that pass found broken, not just the first.
 */

#ifndef PDP_CHECK_INVARIANT_AUDITOR_H
#define PDP_CHECK_INVARIANT_AUDITOR_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "check/check.h"

namespace pdp
{

class Cache;
class OccupancyTracker;

/** One violated invariant found during an audit pass. */
struct Violation
{
    /** Dotted invariant name, e.g. "pdp.rpd_range" (see DESIGN.md). */
    std::string invariant;
    std::string detail;
};

/** Violation sink handed to the audit hooks. */
class InvariantReporter
{
  public:
    /**
     * Verify one invariant; on failure record it (streamed detail parts)
     * and return false.  Audit hooks should keep going after a failed
     * check so one pass reports every broken invariant.
     */
    template <typename... Parts>
    bool
    check(bool condition, const char *invariant, Parts &&...detail)
    {
        if (condition) [[likely]]
            return true;
        fail(invariant,
             check::detail::formatMessage(std::forward<Parts>(detail)...));
        return false;
    }

    /** Record a violation unconditionally. */
    void fail(const char *invariant, std::string detail);

    bool clean() const { return violations_.empty(); }

    /** True if any recorded violation carries this invariant name. */
    bool has(const std::string &invariant) const;

    /** Human-readable digest, one violation per line. */
    std::string report() const;

  private:
    std::vector<Violation> violations_;
};

/** Watches live simulator structures and audits them at a cadence. */
class InvariantAuditor
{
  public:
    /** Accesses between full-state walks. */
    static constexpr uint64_t kFullEvery = 1u << 18;

    /** @param cadence accesses between incremental audits (global
     *  checks — cache + occupancy-conservation — plus one rotating
     *  set); 0 disables incremental auditing. */
    explicit InvariantAuditor(uint64_t cadence = 1);

    /** Audit this cache (stats + lines + its policy) from now on. */
    void watchCache(const Cache &cache);

    /**
     * Audit an occupancy tracker against its cache.  With
     * `cross_check_stats` the tracker's event counts are also required to
     * match the cache's demand hit/bypass counters — only valid when the
     * two were reset at the same instant.
     */
    void watchOccupancy(const Cache &cache, const OccupancyTracker &tracker,
                        bool cross_check_stats = false);

    /** Cadence hook; wired into Cache::access via Cache::setAuditor. */
    void onAccess();

    /** Run a full audit immediately; throws CheckFailure on any
     *  violation. */
    void auditNow();

    uint64_t accessesSeen() const { return ticks_; }
    uint64_t auditsRun() const { return auditsRun_; }

  private:
    struct WatchedCache
    {
        const Cache *cache;
        uint32_t nextSet = 0;
    };

    struct WatchedOccupancy
    {
        const Cache *cache;
        const OccupancyTracker *tracker;
        bool crossCheckStats;
    };

    void incrementalAudit();
    /** Count one pass; throws CheckFailure if it found violations. */
    void finish(const InvariantReporter &reporter);

    uint64_t cadence_;
    uint64_t ticks_ = 0;
    uint64_t auditsRun_ = 0;
    std::vector<WatchedCache> caches_;
    std::vector<WatchedOccupancy> occupancies_;
};

} // namespace pdp

#endif // PDP_CHECK_INVARIANT_AUDITOR_H
