#include "check/invariant_auditor.h"

#include <sstream>

#include "cache/cache.h"
#include "cache/occupancy_tracker.h"

namespace pdp
{

void
InvariantReporter::fail(const char *invariant, std::string detail)
{
    violations_.push_back({invariant, std::move(detail)});
}

bool
InvariantReporter::has(const std::string &invariant) const
{
    for (const Violation &v : violations_)
        if (v.invariant == invariant)
            return true;
    return false;
}

std::string
InvariantReporter::report() const
{
    std::ostringstream os;
    os << violations_.size() << " invariant violation(s)\n";
    for (const Violation &v : violations_) {
        os << "  [" << v.invariant << "]";
        if (!v.detail.empty())
            os << " " << v.detail;
        os << "\n";
    }
    return os.str();
}

InvariantAuditor::InvariantAuditor(uint64_t cadence) : cadence_(cadence) {}

void
InvariantAuditor::watchCache(const Cache &cache)
{
    caches_.push_back({&cache, 0});
}

void
InvariantAuditor::watchOccupancy(const Cache &cache,
                                 const OccupancyTracker &tracker,
                                 bool cross_check_stats)
{
    occupancies_.push_back({&cache, &tracker, cross_check_stats});
}

void
InvariantAuditor::onAccess()
{
    ++ticks_;
    if (ticks_ % kFullEvery == 0) {
        auditNow();
        return;
    }
    if (cadence_ != 0 && ticks_ % cadence_ == 0)
        incrementalAudit();
}

void
InvariantAuditor::incrementalAudit()
{
    InvariantReporter reporter;
    for (WatchedCache &watched : caches_) {
        watched.cache->auditGlobalInvariants(reporter);
        if (watched.cache->numSets() > 0) {
            watched.cache->auditSet(watched.nextSet, reporter);
            watched.nextSet = (watched.nextSet + 1) %
                watched.cache->numSets();
        }
    }
    for (const WatchedOccupancy &watched : occupancies_)
        watched.tracker->auditGlobal(reporter);
    finish(reporter);
}

void
InvariantAuditor::auditNow()
{
    InvariantReporter reporter;
    for (const WatchedCache &watched : caches_)
        watched.cache->auditInvariants(reporter);
    for (const WatchedOccupancy &watched : occupancies_)
        watched.tracker->auditInvariants(*watched.cache,
                                         watched.crossCheckStats, reporter);
    finish(reporter);
}

void
InvariantAuditor::finish(const InvariantReporter &reporter)
{
    ++auditsRun_;
    if (!reporter.clean())
        throw CheckFailure("invariant audit failed: " + reporter.report());
}

} // namespace pdp
